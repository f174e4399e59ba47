/**
 * @file
 * Shared declarations of the benchmark tool: the workload sizes, the
 * "--key value" argument reader, and the three subcommands (gen,
 * client, probe) that run.py drives.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstddef>
#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

// Input make-up (README "Inputs" lists the same figures). Queues are
// Table 1 rows at a multiple of their published job counts.
/** offline-replay: Table 1's eight largest queues (2.40M jobs). */
constexpr double kOfflineScale = 2.4;
/** serve-query: the six largest (238k jobs) plus the cold tail. */
constexpr size_t kHotQueues = 6;
constexpr double kServeScale = 0.26;
constexpr size_t kColdQueues = 4'000;
/** serve-ingest-durable: the four largest (405k jobs, 810k events),
 *  enough for the timed phase at several times today's event rate. */
constexpr double kIngestScale = 0.5;
/** Events after the ingest stream's checkpoint (WAL a kill leaves). */
constexpr size_t kRecoveryTail = 4'000;
/** Query frames in each generated query ring (a multiple of every
 *  pipeline window the client uses). */
constexpr size_t kQueryRing = 1u << 14;

/** "--key value" / "--key=value" options after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 0; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                continue;
            key = key.substr(2);
            const size_t eq = key.find('=');
            if (eq != std::string::npos)
                values_[key.substr(0, eq)] = key.substr(eq + 1);
            else if (i + 1 < argc)
                values_[key] = argv[++i];
        }
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    double
    num(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : std::atof(it->second.c_str());
    }

  private:
    std::map<std::string, std::string> values_;
};

int runGen(const Args &args);
int runClient(const Args &args);
int runProbe(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
