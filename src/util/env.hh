/**
 * @file
 * Hardened environment-knob parsing.
 *
 * Every tunable read from the environment (PREDVFS_CACHE_BYTES,
 * PREDVFS_SNAPSHOT, the PREDVFS_SERVE_* serving knobs) goes through
 * these helpers so a malformed value has one defined meaning
 * everywhere: warn once and use the documented fallback. Rejected
 * inputs are empty strings, non-numeric text, trailing junk ("64k"),
 * negative numbers (strtoull would silently wrap them), values that
 * overflow the type, and values outside the caller's [lo, hi] range.
 */

#ifndef PREDVFS_UTIL_ENV_HH
#define PREDVFS_UTIL_ENV_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace predvfs {
namespace util {

/**
 * Parse @p text as an unsigned decimal integer, the strict way every
 * knob and numeric command-line flag is read. Returns false (and
 * leaves @p out untouched) on any malformation: empty, sign
 * characters, trailing junk, or overflow. strtoull alone accepts
 * "-5" (wrapping it) and "7 cats" (stopping early); both are
 * rejected. Leading whitespace is skipped.
 */
bool parseUint(const char *text, std::uint64_t &out);

/**
 * Read an unsigned integer knob.
 *
 * @param name     Environment variable name.
 * @param fallback Value when unset or malformed.
 * @param lo,hi    Inclusive accepted range; out-of-range values warn
 *                 and fall back (they are not clamped — a wildly wrong
 *                 setting should be loud, not silently adjusted).
 */
std::uint64_t envUint(const char *name, std::uint64_t fallback,
                      std::uint64_t lo = 0,
                      std::uint64_t hi = UINT64_MAX);

/** envUint() narrowed to std::size_t, for byte budgets. */
std::size_t envSizeBytes(const char *name, std::size_t fallback);

/**
 * Read a string knob (PREDVFS_SNAPSHOT). An empty value warns and
 * falls back — an empty path is always a configuration mistake, and
 * silently treating it as "disabled" would hide the typo.
 */
std::string envString(const char *name, const std::string &fallback);

} // namespace util
} // namespace predvfs

#endif // PREDVFS_UTIL_ENV_HH
