#include "common/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace ppm {

namespace {

bool
is_digit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

} // namespace

bool
parse_u64(const std::string& s, std::uint64_t* out)
{
    // strtoull would skip whitespace and negate a '-' into range.
    if (s.empty() || !is_digit(s[0]))
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parse_long(const std::string& s, long* out)
{
    if (s.empty() || !(is_digit(s[0]) || s[0] == '-'))
        return false;
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    *out = v;
    return true;
}

bool
parse_double(const std::string& s, double* out)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
scale_time(long count, SimTime unit, SimTime* out)
{
    constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
    constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
    if (unit <= 0 || count > kMax / unit || count < kMin / unit)
        return false;
    *out = count * unit;
    return true;
}

bool
truncate_time(double count, SimTime unit, SimTime* out)
{
    // SimTime holds exactly [-2^63, 2^63): both bounds are doubles.
    const double t = count * static_cast<double>(unit);
    if (!(t >= -0x1p63 && t < 0x1p63))
        return false;
    *out = static_cast<SimTime>(t);
    return true;
}

} // namespace ppm
