/**
 * @file
 * Unit tests for the small substrate pieces: the address map, the
 * logging/formatting helpers, and the type-level unit helpers.
 */

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>

#include "sim/addrmap.hh"
#include "sim/log.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

using namespace a4;

TEST(AddressMap, AllocatesDisjointPageAlignedRegions)
{
    AddressMap m;
    Addr a = m.alloc(100, "a");
    Addr b = m.alloc(5000, "b");
    Addr c = m.alloc(1, "c");

    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_EQ(c % 4096, 0u);
    // Disjoint and ordered.
    EXPECT_GE(b, a + 100);
    EXPECT_GE(c, b + 5000);
    ASSERT_EQ(m.regions().size(), 3u);
    EXPECT_EQ(m.regions()[1].name, "b");
    EXPECT_EQ(m.regions()[1].bytes, 5000u);
}

TEST(AddressMap, RejectsEmptyAllocation)
{
    AddressMap m;
    EXPECT_THROW(m.alloc(0, "empty"), FatalError);
}

TEST(Log, SformatFormats)
{
    EXPECT_EQ(sformat("x=%d y=%s", 42, "hi"), "x=42 y=hi");
    EXPECT_EQ(sformat("%.2f", 1.005), "1.00");
    EXPECT_EQ(sformat("%03u", 7u), "007");
    // Long strings exceed any fixed internal buffer.
    std::string long_fmt = sformat("%s", std::string(5000, 'a').c_str());
    EXPECT_EQ(long_fmt.size(), 5000u);
}

TEST(Log, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_THROW(fatal("config"), FatalError);
    try {
        panic("message text");
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("message text"),
                  std::string::npos);
    }
}

TEST(Log, RunCliEndsAnyExceptionInOneLineAndExitOne)
{
    auto run = [](auto body, std::string &err) {
        testing::internal::CaptureStderr();
        const int rc = runCli("prog", body);
        err = testing::internal::GetCapturedStderr();
        return rc;
    };
    std::string err;
    EXPECT_EQ(run([] { return 3; }, err), 3);
    EXPECT_EQ(err, "");
    EXPECT_EQ(run([]() -> int { fatal("bad input"); }, err), 1);
    EXPECT_EQ(err, "prog: fatal: bad input\n");
    EXPECT_EQ(run([]() -> int { panic("bug"); }, err), 1);
    EXPECT_EQ(err, "prog: panic: bug\n");
    EXPECT_EQ(run([]() -> int { throw SnapshotError("image\ntruncated"); },
                  err),
              1);
    EXPECT_EQ(err, "prog: image truncated\n");
    EXPECT_EQ(run([]() -> int { throw std::bad_alloc(); }, err), 1);
    EXPECT_EQ(err, std::string("prog: ") + std::bad_alloc().what() + "\n");
}

TEST(Types, LineHelpers)
{
    EXPECT_EQ(linesIn(0), 0u);
    EXPECT_EQ(linesIn(1), 1u);
    EXPECT_EQ(linesIn(64), 1u);
    EXPECT_EQ(linesIn(65), 2u);
    EXPECT_EQ(linesIn(1024), 16u);
    EXPECT_EQ(lineOf(0x1234), 0x1234u >> 6);
    EXPECT_EQ(kSec, 1000000000u);
    EXPECT_EQ(kMiB, 1048576u);
}
