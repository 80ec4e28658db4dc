/**
 * @file
 * Strict numeric argument parsing shared by the command-line tools
 * (ppm_run, ppm_fuzz).
 *
 * Every helper enforces the full exit-2 CLI contract: the complete
 * argument must parse (no trailing garbage), the value must be
 * representable (out-of-range input is an error, not a silent clamp
 * to HUGE_VAL/LONG_MAX), and floating-point values must be finite
 * ("inf"/"nan" are valid strtod input but never valid knob values).
 */

#ifndef PPM_TOOLS_CLI_UTIL_HH
#define PPM_TOOLS_CLI_UTIL_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

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

/**
 * Parse a finite double; rejects empty input, trailing garbage,
 * overflow/underflow (ERANGE) and non-finite values.
 */
inline double
parse_number(const char* prog, const char* flag, const char* text)
{
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        bad_arg(prog, flag, "expects a number", text);
    if (errno == ERANGE)
        bad_arg(prog, flag, "is out of range", text);
    if (!std::isfinite(v))
        bad_arg(prog, flag, "expects a finite number", text);
    return v;
}

/**
 * Parse a long; rejects empty input, trailing garbage and values
 * outside the representable range (strtol clamps to LONG_MIN/MAX and
 * sets ERANGE -- a clamped knob is a wrong knob).
 */
inline long
parse_int(const char* prog, const char* flag, const char* text)
{
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0')
        bad_arg(prog, flag, "expects an integer", text);
    if (errno == ERANGE)
        bad_arg(prog, flag, "is out of range", text);
    return v;
}

/** Parse an unsigned 64-bit integer (seeds); same strictness. */
inline std::uint64_t
parse_u64(const char* prog, const char* flag, const char* text)
{
    // strtoull skips leading whitespace and negates a '-' into range.
    if (std::isdigit(static_cast<unsigned char>(text[0])) == 0)
        bad_arg(prog, flag, "expects a non-negative integer", text);
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        bad_arg(prog, flag, "expects a non-negative integer", text);
    if (errno == ERANGE)
        bad_arg(prog, flag, "is out of range", text);
    return static_cast<std::uint64_t>(v);
}

} // namespace ppm::cli

#endif // PPM_TOOLS_CLI_UTIL_HH
