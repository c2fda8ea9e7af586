/**
 * @file
 * Checked parsing of command-line values, shared by every tool: a count
 * is a whole decimal number in a stated range, and a name list is
 * comma-separated. Bad input throws FatalError, which the tools turn
 * into exit status 2.
 */

#ifndef REV_COMMON_CLI_HPP
#define REV_COMMON_CLI_HPP

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace rev
{

/**
 * The command-line value @p text of @p flag as a decimal @p T in
 * [@p min, @p max]. Anything else (a sign, a stray character, an empty
 * string, a value out of range) throws FatalError, so "-1" and "abc"
 * never reach a thread count or a budget as 4294967295 or 0. Every flag
 * that starts threads passes kMaxThreads (common/parallel.hpp) as @p max.
 */
template <class T>
T
parseCount(const char *flag, const std::string &text, T min = 0,
           T max = std::numeric_limits<T>::max())
{
    u64 value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        fatal(flag, " wants a number, got '", text, "'");
    if (value < min)
        fatal(flag, " wants a number of at least ", min, ", got ", value);
    if (value > static_cast<u64>(max))
        fatal(flag, " wants a number of at most ", max, ", got ", value);
    return static_cast<T>(value);
}

/** The non-empty names of the comma-separated list @p text. */
inline std::vector<std::string>
parseNameList(const std::string &text)
{
    std::vector<std::string> names;
    std::istringstream in(text);
    std::string name;
    while (std::getline(in, name, ','))
        if (!name.empty())
            names.push_back(name);
    return names;
}

} // namespace rev

#endif // REV_COMMON_CLI_HPP
