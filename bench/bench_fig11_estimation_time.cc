// Fig. 11: estimation time by query size and by query type for all
// estimators (SWDF and LUBM in the paper). For the sampling approaches
// the paper measures the time of generating their full sample budget per
// estimate — which is what one EstimateCardinality call does here. The
// paper plots ms; the tables print µs, because LMKG-S and cset take a few
// µs or less per estimate, below a three-decimal ms column.
#include <iostream>

#include "data/dataset.h"
#include "eval/comparison.h"
#include "eval/suite.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lmkg;
  using query::Topology;
  eval::SuiteOptions options = eval::SuiteOptionsFromFlags(argc, argv);
  util::Flags flags(argc, argv);
  auto datasets = util::Split(flags.GetString("datasets", "swdf"), ',');
  std::cout << "Fig. 11: estimation time in µs (scale="
            << options.dataset_scale << ")\n\n";

  for (const std::string& name : datasets) {
    rdf::Graph graph =
        data::MakeDataset(name, options.dataset_scale, options.seed);
    std::cerr << "[fig11] " << name << ": " << rdf::GraphSummary(graph)
              << "\n";
    eval::ComparisonResult comparison =
        eval::RunComparison(graph, options, /*include_lmkg_u=*/true);

    util::TablePrinter by_size("avg estimation µs by query size — " + name);
    std::vector<std::string> header = {"estimator"};
    for (int size : options.query_sizes)
      header.push_back(std::to_string(size));
    by_size.SetHeader(header);
    util::TablePrinter by_type("avg estimation µs by query type — " + name);
    by_type.SetHeader({"estimator", "star", "chain"});

    for (size_t e = 0; e < comparison.estimator_names.size(); ++e) {
      std::vector<double> size_row;
      for (int size : options.query_sizes) {
        std::vector<double> times;
        for (size_t c = 0; c < comparison.test.combos.size(); ++c) {
          if (comparison.test.combos[c].second != size) continue;
          const auto& cell = comparison.cells[e][c];
          times.insert(times.end(), cell.times_ms.begin(),
                       cell.times_ms.end());
        }
        size_row.push_back(eval::MeanOf(times) * 1e3);  // ms -> µs
      }
      by_size.AddRow(comparison.estimator_names[e], size_row);

      std::vector<double> type_row;
      for (Topology topology : {Topology::kStar, Topology::kChain}) {
        std::vector<double> times;
        for (size_t c = 0; c < comparison.test.combos.size(); ++c) {
          if (comparison.test.combos[c].first != topology) continue;
          const auto& cell = comparison.cells[e][c];
          times.insert(times.end(), cell.times_ms.begin(),
                       cell.times_ms.end());
        }
        type_row.push_back(eval::MeanOf(times) * 1e3);  // ms -> µs
      }
      by_type.AddRow(comparison.estimator_names[e], type_row);
    }
    by_size.Print(std::cout);
    std::cout << "\n";
    by_type.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Paper shape: cset is fastest, LMKG-S next (both nearly "
               "size-independent); the sampling approaches grow with the "
               "number of joins; LMKG-U sits in between.\n";
  return 0;
}
