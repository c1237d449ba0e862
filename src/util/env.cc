#include "util/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace predvfs {
namespace util {

namespace {

/**
 * Parse @p text as an unsigned decimal integer. Returns false (and
 * leaves @p out untouched) on any malformation: empty, sign
 * characters, trailing junk, or overflow. strtoull alone accepts
 * "-5" (wrapping it) and "7 cats" (stopping early); both must fall
 * back instead.
 */
bool
parseUint(const char *text, std::uint64_t &out)
{
    const char *p = text;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    if (*p == '\0' || !std::isdigit(static_cast<unsigned char>(*p)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (errno == ERANGE || end == p || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

} // namespace

std::uint64_t
envUint(const char *name, std::uint64_t fallback, std::uint64_t lo,
        std::uint64_t hi)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    std::uint64_t value = 0;
    if (!parseUint(env, value)) {
        warn(name, ": not an unsigned integer: '", env,
             "'; using default ", fallback);
        return fallback;
    }
    if (value < lo || value > hi) {
        warn(name, ": ", value, " outside accepted range [", lo, ", ",
             hi, "]; using default ", fallback);
        return fallback;
    }
    return value;
}

std::size_t
envSizeBytes(const char *name, std::size_t fallback)
{
    return static_cast<std::size_t>(
        envUint(name, fallback, 0,
                static_cast<std::uint64_t>(SIZE_MAX)));
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    if (*env == '\0') {
        warn(name, ": set but empty; using default '", fallback, "'");
        return fallback;
    }
    return std::string(env);
}

} // namespace util
} // namespace predvfs
