// Table 6.1: the SCC configuration used for every experiment.
#include <cstdio>

#include "sim/machine.h"

int main(int argc, char**) {
  using namespace hsm;
  if (argc > 1) {
    std::fprintf(stderr, "usage: table_6_1_scc_config (takes no arguments)\n");
    return 2;
  }
  const sim::SccConfig config;
  std::printf("Table 6.1 — SCC Configuration\n\n%s\n",
              config.formatTable61(32, 32).c_str());
  std::printf("Platform model details:\n");
  std::printf("  cores: %u (P54C-class) on %u tiles (%ux%u mesh)\n", config.num_cores,
              config.numTiles(), config.mesh_cols, config.mesh_rows);
  std::printf("  MPB: %zu KB per core, %zu KB total\n",
              config.mpb_bytes_per_core / 1024, config.mpbTotalBytes() / 1024);
  std::printf("  caches (private, non-coherent): L1 %zu KB, L2 %zu KB, %zu B lines\n",
              config.l1_bytes / 1024, config.l2_bytes / 1024, config.cache_line_bytes);
  std::printf("  memory controllers: %u (one per mesh quadrant)\n",
              config.num_mem_controllers);
  return 0;
}
