/**
 * @file
 * Error reporting.
 *
 * Levels follow gem5's spirit: `panic` for simulator bugs (aborts),
 * `fatal` for user/configuration errors (throws).
 */

#ifndef SONUMA_SIM_LOG_HH
#define SONUMA_SIM_LOG_HH

#include <stdexcept>
#include <string>

namespace sonuma::sim {

/** Error thrown by fatal(): the condition is the user's fault. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raise a user-facing configuration/usage error. */
[[noreturn]] void fatal(const std::string &msg);

/** Abort on a should-never-happen internal condition. */
[[noreturn]] void panic(const std::string &msg);

} // namespace sonuma::sim

#endif // SONUMA_SIM_LOG_HH
