// perfbench, the repo benchmark. Usage:
//
//   perfbench --workload fig7_sweep|learned_des|skpd_loop --seed N
//             --seconds S --trace 0|1 --skpd PATH --digests FILE
//             [--out-dir DIR]
//   perfbench --write-digests FILE --skpd PATH
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout. perfbench/run.py builds this binary and passes the paths.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "learned.hpp"
#include "sim/sweep.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --skpd PATH --digests FILE [--out-dir DIR]\n"
               "       perfbench --write-digests FILE --skpd PATH\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--skpd") {
        opt.skpd_bin = value;
      } else if (arg == "--digests") {
        opt.digests = value;
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else if (arg == "--write-digests") {
        opt.write_digests = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (opt.skpd_bin.empty()) usage("--skpd is required");
  if (opt.write_digests.empty()) {
    if (opt.digests.empty()) usage("--digests is required");
    if (opt.workload.empty()) usage("--workload is required");
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  }
  return opt;
}

void append_row(std::ofstream& out, const char* workload,
                std::uint64_t variant, const std::vector<std::string>& row) {
  out << workload << ' ' << variant;
  for (const std::string& d : row) out << ' ' << d;
  out << '\n';
}

// Regenerates the committed digest table from the current program.
int write_digests(const Options& opt) {
  std::ofstream out(opt.write_digests);
  if (!out) usage("cannot write " + opt.write_digests);
  out << "# Per-spec digests of the simulated statistics "
         "(perfbench/common.cpp digest()).\n"
         "# One line per workload and seed variant: name, variant, then one\n"
         "# 64-bit hex digest per spec in workload order ('-' = the spec\n"
         "# exceeds its wall budget). Regenerate: perfbench/run.py "
         "--write-digests\n";
  // Forked learned_des specs first, while this process runs no threads.
  std::vector<std::vector<std::string>> learned(kSeedVariants);
  for (std::uint64_t v = 0; v < kSeedVariants; ++v) {
    const std::vector<skp::SimSpec> specs = learned_specs(v);
    SpecWorker worker(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::optional<ChildResult> r = worker.run(i, kSpecBudgetS);
      learned[v].push_back(r && r->ok ? hex(r->digest) : "-");
    }
  }
  skp::ThreadPool pool(4);
  const auto run_all = [&](const std::vector<skp::SimSpec>& specs) {
    const std::vector<std::uint64_t> d =
        skp::sweep_configs(pool, specs, [](const skp::SimSpec& spec) {
          return digest(skp::run_sim(spec));
        });
    std::vector<std::string> row;
    for (const std::uint64_t x : d) row.push_back(hex(x));
    return row;
  };
  for (std::uint64_t v = 0; v < kSeedVariants; ++v) {
    append_row(out, "fig7_sweep", v, run_all(fig7_specs(v)));
    append_row(out, "learned_des", v, learned[v]);
    append_row(out, "skpd_loop", v, run_all(skpd_session_specs(v)));
  }
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead worker or peer must surface as a failed write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  const Options opt = parse(argc, argv);
  if (!opt.write_digests.empty()) return write_digests(opt);

  DigestTable digests;
  std::string error;
  if (!digests.load(opt.digests, error)) usage(error);

  Report report;
  try {
    if (opt.workload == "fig7_sweep") {
      run_fig7_sweep(opt, digests, report);
    } else if (opt.workload == "learned_des") {
      run_learned_des(opt, digests, report);
    } else if (opt.workload == "skpd_loop") {
      run_skpd_loop(opt, digests, report);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (report.attempted() == 0) {
    std::cerr << "perfbench: nothing was attempted\n";
    return 1;
  }
  report.print();
  return 0;
}
