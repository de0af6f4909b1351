#include "sim/noc.h"

namespace hsm::sim {

MeshTopology::MeshTopology(const SccConfig& config) : config_(config) {
  const std::uint32_t tiles = config_.numTiles();
  tile_coord_.reserve(tiles);
  for (std::uint32_t tile = 0; tile < tiles; ++tile) {
    tile_coord_.push_back(TileCoord{tile % config_.mesh_cols, tile / config_.mesh_cols});
  }

  core_controller_.reserve(config_.num_cores);
  for (std::uint32_t core = 0; core < config_.num_cores; ++core) {
    const TileCoord c = coordOfCore(core);
    const bool east = c.x >= config_.mesh_cols / 2;
    const bool north = c.y >= config_.mesh_rows / 2;
    const std::uint32_t mc = (north ? 2u : 0u) + (east ? 1u : 0u);
    core_controller_.push_back(mc);
  }

  ue_core_.reserve(config_.num_cores);
  for (std::uint32_t ue = 0; ue < config_.num_cores; ++ue) {
    ue_core_.push_back(computeCoreForUe(ue));
  }
}

std::uint32_t MeshTopology::controllerForUe(int ue, int num_ues) const {
  return controllerOfCore(coreForUe(ue, num_ues));
}

std::uint32_t MeshTopology::computeCoreForUe(std::uint32_t ue) const {
  // Enumerate the tiles of each quadrant (x side, y side); UE i lands in
  // quadrant i%4, filling each quadrant's tiles before using second cores.
  const std::uint32_t half_x = config_.mesh_cols / 2;
  const std::uint32_t half_y = config_.mesh_rows / 2;
  const std::uint32_t quadrant = ue % 4;
  const std::uint32_t k = ue / 4;

  std::vector<std::uint32_t> tiles;
  const bool east = (quadrant & 1u) != 0;
  const bool north = (quadrant & 2u) != 0;
  for (std::uint32_t y = north ? half_y : 0; y < (north ? config_.mesh_rows : half_y);
       ++y) {
    for (std::uint32_t x = east ? half_x : 0; x < (east ? config_.mesh_cols : half_x);
         ++x) {
      tiles.push_back(y * config_.mesh_cols + x);
    }
  }
  const std::uint32_t tile = tiles[k % tiles.size()];
  const std::uint32_t slot = (k / tiles.size()) % config_.cores_per_tile;
  return tile * config_.cores_per_tile + slot;
}

}  // namespace hsm::sim
