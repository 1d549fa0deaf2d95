#include "common/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cac
{

namespace
{

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("CAC_LOG");
    if (!env || !*env)
        return LogLevel::Info;
    if (std::strcmp(env, "error") == 0)
        return LogLevel::Error;
    if (std::strcmp(env, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(env, "debug") == 0)
        return LogLevel::Debug;
    std::fprintf(stderr,
                 "warn: CAC_LOG='%s' not one of error|warn|info|debug; "
                 "using info\n",
                 env);
    return LogLevel::Info;
}

std::atomic<int> &
levelSlot()
{
    static std::atomic<int> level{static_cast<int>(levelFromEnv())};
    return level;
}

/** Seconds since the first log call (process-relative timestamps). */
double
elapsedSeconds()
{
    static const auto start = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Assemble the whole line in one buffer and write it with a single
 * fprintf so concurrent threads never interleave mid-line.
 */
void
vreport(const char *prefix, const char *fmt, va_list args)
{
    char line[1024];
    int head = std::snprintf(line, sizeof(line), "[%8.3fs t%02u] %s: ",
                             elapsedSeconds(), threadId(), prefix);
    if (head < 0)
        head = 0;
    std::size_t off = static_cast<std::size_t>(head);
    if (off < sizeof(line))
        std::vsnprintf(line + off, sizeof(line) - off, fmt, args);
    std::fprintf(stderr, "%s\n", line);
}

bool
enabled(LogLevel level)
{
    return static_cast<int>(level)
           <= levelSlot().load(std::memory_order_relaxed);
}

} // anonymous namespace

unsigned
threadId()
{
    static std::atomic<unsigned> next{0};
    static thread_local const unsigned id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
setLogLevel(LogLevel level)
{
    levelSlot().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        levelSlot().load(std::memory_order_relaxed));
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (!enabled(LogLevel::Warn))
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (!enabled(LogLevel::Info))
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
debug(const char *fmt, ...)
{
    if (!enabled(LogLevel::Debug))
        return;
    va_list args;
    va_start(args, fmt);
    vreport("debug", fmt, args);
    va_end(args);
}

} // namespace cac
