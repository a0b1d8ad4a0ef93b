// Quickstart: the hotel example of Figure 1, end to end.
//
// Seven hotels rated on Service, Cleanliness and Location; the user's rough
// preferences span the rectangle R = [0.05, 0.45] x [0.05, 0.25] of
// (w_service, w_cleanliness) weights (w_location is implied). UTK1 reports
// every hotel that can make the top-2 for some preference in R; UTK2 maps
// exactly which preferences yield which top-2 set.
//
// Both queries go through the utk::Engine facade with Algorithm::kAuto: the
// engine owns the R-tree and picks the algorithm (RSA for UTK1, JAA for
// UTK2).
//
// Run:  ./example_quickstart
#include <cstdio>

#include "api/engine.h"
#include "data/realistic.h"

int main() {
  using namespace utk;

  Engine engine(FigureOneHotels());
  const char* names[] = {"p1", "p2", "p3", "p4", "p5", "p6", "p7"};

  std::printf("Hotels (Service, Cleanliness, Location):\n");
  for (const Record& h : engine.data()) {
    std::printf("  %s: (%.1f, %.1f, %.1f)\n", names[h.id], h.attrs[0],
                h.attrs[1], h.attrs[2]);
  }

  QuerySpec spec;
  spec.k = 2;
  spec.region = ConvexRegion::FromBox({0.05, 0.05}, {0.45, 0.25});

  // --- UTK1: which hotels can be in the top-2 anywhere in R? ---
  spec.mode = QueryMode::kUtk1;
  QueryResult utk1 = engine.Run(spec);
  std::printf("\nUTK1 (k=%d, R=[0.05,0.45]x[0.05,0.25], via %s): { ", spec.k,
              AlgorithmName(utk1.algorithm));
  for (int32_t id : utk1.ids) std::printf("%s ", names[id]);
  std::printf("}\n");
  std::printf("  (the paper's Figure 1 reports {p1, p2, p4, p6})\n");

  // --- UTK2: the exact top-2 set for every preference in R ---
  spec.mode = QueryMode::kUtk2;
  QueryResult utk2 = engine.Run(spec);
  std::printf("\nUTK2 partitioning of R (%zu cells, via %s):\n",
              utk2.utk2.cells.size(), AlgorithmName(utk2.algorithm));
  for (const Utk2Cell& cell : utk2.utk2.cells) {
    std::printf("  at (w1=%.3f, w2=%.3f): top-2 = { ", cell.witness[0],
                cell.witness[1]);
    for (int32_t id : cell.topk) std::printf("%s ", names[id]);
    std::printf("}\n");
  }

  std::printf("\nStats: %s\n", utk2.stats.ToString().c_str());
  return 0;
}
