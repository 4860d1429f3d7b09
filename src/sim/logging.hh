/**
 * @file
 * Status/error reporting in the gem5 tradition.
 *
 * - panic():  a simulator bug; something that must never happen did.
 *             Aborts the process.
 * - fatal():  a user error (bad configuration, invalid experiment
 *             parameters).  Throws sim::FatalError so library users and
 *             tests can catch it.
 */

#ifndef CELLBW_SIM_LOGGING_HH
#define CELLBW_SIM_LOGGING_HH

#include <stdexcept>
#include <string>

namespace cellbw::sim
{

/** Exception thrown by fatal(): the condition is the user's fault. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Report an internal simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error; throws FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace cellbw::sim

#endif // CELLBW_SIM_LOGGING_HH
