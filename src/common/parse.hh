/**
 * @file
 * Strict full-string number parses for text inputs: fault specs, fuzz
 * fixtures and demand traces.  Each returns false, leaving `*out`
 * untouched, on an empty string, leading whitespace, trailing
 * garbage or a value its type cannot hold, so no input reaches an
 * out-of-range conversion.
 */

#ifndef PPM_COMMON_PARSE_HH
#define PPM_COMMON_PARSE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ppm {

/** A decimal integer in [0, 2^64): digits only, no sign. */
bool parse_u64(const std::string& s, std::uint64_t* out);

/** A decimal integer that fits a long, with an optional '-'. */
bool parse_long(const std::string& s, long* out);

/** A finite double in any form strtod reads. */
bool parse_double(const std::string& s, double* out);

/** `count` units of time as a SimTime; false on overflow. */
bool scale_time(long count, SimTime unit, SimTime* out);

/**
 * A real `count` of units as a SimTime, truncated toward zero as a
 * cast truncates; false when the product is not finite or does not
 * fit, where the cast would be undefined.
 */
bool truncate_time(double count, SimTime unit, SimTime* out);

} // namespace ppm

#endif // PPM_COMMON_PARSE_HH
