/**
 * @file
 * Linked into every bench and example binary (the smtflex_exit_on_fatal
 * object library): a FatalError that escapes main, i.e. a configuration
 * error such as a bad SMTFLEX_* value, ends the process with exit status
 * 1, as in the smtflex CLI, instead of std::terminate's abort. fatal()
 * has already reported the message through the log sink. Any other
 * uncaught exception still reaches the default terminate handler.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common/log.h"

namespace smtflex {
namespace {

std::terminate_handler defaultTerminate = nullptr;

[[noreturn]] void
exitOnFatal()
{
    try {
        if (const std::exception_ptr error = std::current_exception())
            std::rethrow_exception(error);
    } catch (const FatalError &) {
        std::fflush(nullptr); // keep what the binary printed so far
        std::_Exit(1);
    } catch (...) {
    }
    defaultTerminate();
    std::abort();
}

struct InstallExitOnFatal
{
    InstallExitOnFatal() { defaultTerminate = std::set_terminate(exitOnFatal); }
} installExitOnFatal;

} // namespace
} // namespace smtflex
