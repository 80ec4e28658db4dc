/**
 * @file
 * Numeric argument parsing shared by the command-line tools (ppm_run,
 * ppm_fuzz): thin wrappers over the strict parses in common/parse.hh
 * that turn a refused value into the exit-2 CLI contract.  The whole
 * argument must parse (no leading whitespace, no trailing garbage),
 * the value must fit its type (out-of-range input is an error, not a
 * silent clamp), and floating-point values must be finite ("inf" and
 * "nan" are valid strtod input but never valid knob values).
 */

#ifndef PPM_TOOLS_CLI_UTIL_HH
#define PPM_TOOLS_CLI_UTIL_HH

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/parse.hh"

namespace ppm::cli {

/** One-line CLI error + exit 2 (bad value for a known flag). */
[[noreturn]] inline void
bad_arg(const char* prog, const char* flag, const char* why,
        const char* got)
{
    std::fprintf(stderr, "%s: %s %s (got '%s')\n", prog, flag, why,
                 got);
    std::exit(2);
}

/** A finite double (ppm::parse_double), or exit 2. */
inline double
parse_number(const char* prog, const char* flag, const char* text)
{
    double v = 0.0;
    if (!ppm::parse_double(text, &v))
        bad_arg(prog, flag, "expects a finite number", text);
    return v;
}

/** A long (ppm::parse_long), or exit 2. */
inline long
parse_int(const char* prog, const char* flag, const char* text)
{
    long v = 0;
    if (!ppm::parse_long(text, &v))
        bad_arg(prog, flag, "expects an integer that fits a long", text);
    return v;
}

/** An int of at least `min`, or exit 2: a value past INT_MAX is
 *  refused, never narrowed. */
inline int
parse_int_from(const char* prog, const char* flag, const char* text,
               int min)
{
    const long v = parse_int(prog, flag, text);
    if (v < min || v > INT_MAX) {
        char why[64];
        std::snprintf(why, sizeof why, "expects an integer from %d to %d",
                      min, INT_MAX);
        bad_arg(prog, flag, why, text);
    }
    return static_cast<int>(v);
}

/** An unsigned 64-bit integer (ppm::parse_u64; seeds), or exit 2. */
inline std::uint64_t
parse_u64(const char* prog, const char* flag, const char* text)
{
    std::uint64_t v = 0;
    if (!ppm::parse_u64(text, &v))
        bad_arg(prog, flag, "expects a non-negative 64-bit integer", text);
    return v;
}

} // namespace ppm::cli

#endif // PPM_TOOLS_CLI_UTIL_HH
