/**
 * @file
 * perfbench_tool: the benchmark's compiled half. run.py calls
 *
 *   perfbench_tool gen    --workload W --seed N --out DIR
 *   perfbench_tool client --mode serve-query|ingest ...
 *   perfbench_tool probe  --workload W --inputs DIR --out DIR
 */

#include <cstdio>
#include <string>

#include "perfbench.hh"

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    const perfbench::Args args(argc, argv);
    if (command == "gen")
        return perfbench::runGen(args);
    if (command == "client")
        return perfbench::runClient(args);
    if (command == "probe")
        return perfbench::runProbe(args);
    std::fprintf(stderr, "usage: perfbench_tool gen|client|probe ...\n");
    return 2;
}
