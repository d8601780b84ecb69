#include "sim/log.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace a4
{

namespace
{
bool quiet_mode = false;
} // namespace

std::string
sformat(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return "<format error>";
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

int
reportCliFailure(const char *prog, const std::exception &e)
{
    std::string msg = e.what();
    for (char &c : msg) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    std::fprintf(stderr, "%s: %s\n", prog, msg.c_str());
    return 1;
}

void
warn(const std::string &msg)
{
    if (!quiet_mode)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    if (!quiet_mode)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quiet_mode = quiet;
}

void
warnOncePerValue(std::string &warned, const char *value,
                 const char *format)
{
    if (warned == value)
        return;
    warned = value;
    std::fprintf(stderr, format, value);
}

} // namespace a4
