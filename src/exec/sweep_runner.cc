#include "exec/sweep_runner.hh"

#include <cstdlib>
#include <string>

#include "sim/logging.hh"

namespace idp {
namespace exec {

unsigned
configuredThreads()
{
    const char *env = std::getenv("IDP_THREADS");
    if (env == nullptr || *env == '\0')
        return ThreadPool::hardwareThreads();
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > kMaxThreads) {
        sim::warnOnce("IDP_THREADS='" + std::string(env) +
                      "' is not an integer in [1, " +
                      std::to_string(kMaxThreads) + "]; using " +
                      std::to_string(ThreadPool::hardwareThreads()) +
                      " threads");
        return ThreadPool::hardwareThreads();
    }
    return static_cast<unsigned>(v);
}

} // namespace exec
} // namespace idp
