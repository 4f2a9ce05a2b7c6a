// SPARQL estimation shell: load a dataset (synthetic by name, or any
// N-Triples file), train LMKG-S once, then estimate the cardinality of
// SPARQL queries from the command line or stdin.
//
//   ./sparql_estimate --dataset=swdf --scale=0.01
//   ./sparql_estimate --file=mydata.nt "SELECT ?x WHERE { ?x <p> <o> . }"
//   echo 'SELECT * WHERE { ?s <rdf:type> <class/Person> . }' |
//       ./sparql_estimate --dataset=swdf
//
// Models can be persisted across runs ("train once in the creation
// phase"): --save_models=lmkg.bin writes them after training,
// --load_models=lmkg.bin restores them instead of training (the dataset
// flags must match the saving run).
#include <fstream>
#include <iostream>
#include <string>

#include "core/lmkg.h"
#include "data/dataset.h"
#include "query/executor.h"
#include "query/sparql_parser.h"
#include "rdf/ntriples.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace lmkg;
  util::Flags flags(argc, argv);

  rdf::Graph graph;
  std::string file = flags.GetString("file", "");
  if (!file.empty()) {
    auto status = rdf::LoadNTriplesFile(file, &graph);
    if (!status.ok()) {
      std::cerr << status.message() << "\n";
      return 1;
    }
    graph.Finalize();
  } else {
    graph = data::MakeDataset(flags.GetString("dataset", "swdf"),
                              flags.GetDouble("scale", 0.01),
                              flags.GetInt("seed", 7));
  }
  std::cerr << "Graph: " << rdf::GraphSummary(graph) << "\n";

  core::LmkgConfig config;
  config.kind = core::ModelKind::kSupervised;
  config.grouping = core::Grouping::kBySize;
  config.query_sizes = {2, 3};
  config.s_config.epochs =
      static_cast<int>(flags.GetInt("epochs", 30));
  config.s_config.hidden_dim = 96;
  config.train_queries_per_combo = 250;
  core::Lmkg lmkg(graph, config);
  std::string load_path = flags.GetString("load_models", "");
  if (!load_path.empty()) {
    std::ifstream in(load_path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open " << load_path << "\n";
      return 1;
    }
    auto status = lmkg.Load(in);
    if (!status.ok()) {
      std::cerr << "load failed: " << status.message() << "\n";
      return 1;
    }
    std::cerr << "Loaded " << lmkg.num_models() << " model(s) from "
              << load_path << "\n";
  } else {
    std::cerr << "Training LMKG-S...\n";
    lmkg.BuildModels();
    std::string save_path = flags.GetString("save_models", "");
    if (!save_path.empty()) {
      // Atomic + durable: a crash mid-save leaves the previous model
      // file (or none), never a torn one.
      auto status = util::WriteFileAtomic(
          save_path,
          [&](std::ostream& out) { return lmkg.Save(out); });
      if (!status.ok()) {
        std::cerr << "save failed: " << status.message() << "\n";
        return 1;
      }
      std::cerr << "Saved models to " << save_path << "\n";
    }
  }
  query::Executor executor(graph);

  auto handle = [&](const std::string& text) {
    auto parsed = query::ParseSparql(text, graph);
    if (!parsed.ok()) {
      std::cout << "  error: " << parsed.status().message() << "\n";
      return;
    }
    util::Stopwatch timer;
    double estimate = lmkg.EstimateCardinality(parsed.value());
    double ms = timer.ElapsedMillis();
    double exact = executor.Cardinality(parsed.value());
    std::cout << "  topology: "
              << query::TopologyName(
                     query::ClassifyTopology(parsed.value()))
              << "\n  estimate: " << estimate << " (in " << ms
              << " ms)\n  exact:    " << exact
              << "\n  q-error:  " << util::QError(estimate, exact) << "\n";
  };

  if (!flags.positional().empty()) {
    for (const std::string& text : flags.positional()) {
      std::cout << "> " << text << "\n";
      handle(text);
    }
    return 0;
  }
  std::cerr << "Reading SPARQL queries from stdin (one per line)...\n";
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << "> " << line << "\n";
    handle(line);
  }
  return 0;
}
