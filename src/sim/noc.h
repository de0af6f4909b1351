// The SCC's 6x4 tile mesh: XY dimension-ordered routing, four memory
// controllers on the periphery, and tile geometry helpers.
//
// Topology is immutable after construction, so every per-core quantity a
// hot memory access needs — tile coordinates, assigned controller, hop
// count to that controller — and the UE→core placement map are built once
// in the constructor and served as O(1) table lookups thereafter.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scc_config.h"

namespace hsm::sim {

struct TileCoord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  friend bool operator==(const TileCoord&, const TileCoord&) = default;
};

class MeshTopology {
 public:
  explicit MeshTopology(const SccConfig& config);

  [[nodiscard]] std::uint32_t tileOfCore(std::uint32_t core) const {
    return core / config_.cores_per_tile;
  }
  [[nodiscard]] TileCoord coordOfTile(std::uint32_t tile) const {
    return tile_coord_[tile];
  }
  [[nodiscard]] TileCoord coordOfCore(std::uint32_t core) const {
    return coordOfTile(tileOfCore(core));
  }

  /// Manhattan distance in hops between two tiles (XY routing).
  [[nodiscard]] std::uint32_t hops(std::uint32_t tile_a, std::uint32_t tile_b) const {
    const TileCoord a = tile_coord_[tile_a];
    const TileCoord b = tile_coord_[tile_b];
    const std::uint32_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
    const std::uint32_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
    return dx + dy;
  }
  [[nodiscard]] std::uint32_t hopsBetweenCores(std::uint32_t core_a,
                                               std::uint32_t core_b) const {
    return hops(tileOfCore(core_a), tileOfCore(core_b));
  }

  /// The SCC's four memory controllers sit at the mesh periphery next to
  /// tiles (0,0), (5,0), (0,2) and (5,2); each serves its quadrant.
  [[nodiscard]] std::uint32_t controllerOfCore(std::uint32_t core) const {
    return core_controller_[core];
  }
  [[nodiscard]] std::uint32_t numControllers() const {
    return config_.num_mem_controllers;
  }
  /// Controller serving logical UE `ue` — the identity a task registers as
  /// its coalescing-horizon affinity (Engine::spawn resource id).
  [[nodiscard]] std::uint32_t controllerForUe(int ue, int num_ues) const;

  // -- unified serially-reusable resource namespace --
  // The engine hosts ONE id space of coalescable resources. Memory
  // controllers take ids [0, num_mem_controllers); each tile's MPB port
  // takes id num_mem_controllers + tile. Every task's reach set is built
  // from these ids (Engine::spawn).
  [[nodiscard]] std::uint32_t numResources() const {
    return config_.num_mem_controllers + numTiles();
  }
  [[nodiscard]] std::uint32_t numTiles() const { return config_.numTiles(); }
  /// Engine resource id of tile `tile`'s MPB port.
  [[nodiscard]] std::uint32_t portResourceId(std::uint32_t tile) const {
    return config_.num_mem_controllers + tile;
  }
  /// Engine resource id of the MPB port serving `core`'s tile.
  [[nodiscard]] std::uint32_t portResourceIdForCore(std::uint32_t core) const {
    return portResourceId(tileOfCore(core));
  }

  /// Attachment tile of a controller (for hop counting).
  [[nodiscard]] std::uint32_t tileOfController(std::uint32_t mc) const {
    const bool east = (mc & 1u) != 0;
    const bool north = (mc & 2u) != 0;
    const std::uint32_t x = east ? config_.mesh_cols - 1 : 0;
    const std::uint32_t y = north ? config_.mesh_rows - 1 : 0;
    return y * config_.mesh_cols + x;
  }

  /// Hops from a core to a memory controller, plus one hop onto the
  /// controller's port.
  [[nodiscard]] std::uint32_t hopsFromCoreToController(std::uint32_t core,
                                                      std::uint32_t mc) const {
    return hops(tileOfCore(core), tileOfController(mc)) + 1;
  }

  /// Physical core hosting logical UE `ue` when `num_ues` UEs participate.
  /// UEs are spread round-robin across the four quadrants so each memory
  /// controller serves an equal share (the paper runs 32 UEs on the 48-core
  /// chip with "at least 8 cores in contention per memory controller").
  /// The table covers one UE per core; oversubscribed UE ids fall back to
  /// the direct computation (identical result, just off the fast path).
  [[nodiscard]] std::uint32_t coreForUe(int ue, int num_ues) const {
    (void)num_ues;
    const auto u = static_cast<std::uint32_t>(ue);
    return u < ue_core_.size() ? ue_core_[u] : computeCoreForUe(u);
  }

 private:
  [[nodiscard]] std::uint32_t computeCoreForUe(std::uint32_t ue) const;

  const SccConfig& config_;
  std::vector<TileCoord> tile_coord_;             ///< per tile
  std::vector<std::uint32_t> core_controller_;    ///< per core
  std::vector<std::uint32_t> ue_core_;            ///< per ue mod num_cores
};

}  // namespace hsm::sim
