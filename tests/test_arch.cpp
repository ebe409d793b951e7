// Grid, cell-set, chip layout, flow path and router tests.
#include <gtest/gtest.h>

#include "arch/cell.h"
#include "arch/chip.h"
#include "arch/path.h"
#include "arch/router.h"

namespace pdw::arch {
namespace {

TEST(Cell, ManhattanAndAdjacency) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_TRUE(adjacent({2, 2}, {2, 3}));
  EXPECT_TRUE(adjacent({2, 2}, {1, 2}));
  EXPECT_FALSE(adjacent({2, 2}, {3, 3}));
  EXPECT_FALSE(adjacent({2, 2}, {2, 2}));
}

TEST(CellSet, InsertEraseContains) {
  CellSet set(10, 8);
  EXPECT_TRUE(set.empty());
  set.insert({3, 4});
  set.insert({3, 4});  // idempotent
  set.insert({0, 0});
  EXPECT_EQ(set.size(), 2);
  EXPECT_TRUE(set.contains({3, 4}));
  EXPECT_FALSE(set.contains({4, 3}));
  EXPECT_FALSE(set.contains({-1, 0}));  // out of range is never contained
  set.erase({3, 4});
  EXPECT_FALSE(set.contains({3, 4}));
  EXPECT_EQ(set.size(), 1);
}

TEST(CellSet, IntersectionAndSubset) {
  CellSet a(6, 6), b(6, 6), c(6, 6);
  a.insert({1, 1});
  a.insert({2, 2});
  b.insert({2, 2});
  c.insert({3, 3});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.containsAll(b));
  EXPECT_FALSE(b.containsAll(a));
}

TEST(CellSet, ToVectorIsRowMajorSorted) {
  CellSet set(5, 5);
  set.insert({4, 0});
  set.insert({0, 1});
  set.insert({1, 0});
  const auto cells = set.toVector();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], (Cell{1, 0}));
  EXPECT_EQ(cells[1], (Cell{4, 0}));
  EXPECT_EQ(cells[2], (Cell{0, 1}));
}

TEST(ChipLayout, DevicesAndPorts) {
  ChipLayout chip(8, 8, 3.0);
  const DeviceId mixer = chip.addDevice(DeviceKind::Mixer, {3, 3});
  const DeviceId heater = chip.addDevice(DeviceKind::Heater, {5, 5});
  const PortId in = chip.addFlowPort({0, 2}, "in1");
  const PortId out = chip.addWastePort({7, 4}, "out1");

  EXPECT_EQ(chip.device(mixer).kind, DeviceKind::Mixer);
  EXPECT_EQ(chip.deviceAt({3, 3}), std::optional<DeviceId>(mixer));
  EXPECT_EQ(chip.deviceAt({3, 4}), std::nullopt);
  EXPECT_EQ(chip.devicesOfKind(DeviceKind::Heater),
            std::vector<DeviceId>{heater});
  EXPECT_TRUE(chip.devicesOfKind(DeviceKind::Filter).empty());

  EXPECT_FALSE(chip.port(in).is_waste);
  EXPECT_TRUE(chip.port(out).is_waste);
  EXPECT_EQ(chip.flowPorts().size(), 1u);
  EXPECT_EQ(chip.wastePorts().size(), 1u);
  EXPECT_TRUE(chip.isPortCell({0, 2}));
  EXPECT_FALSE(chip.isPortCell({1, 2}));
}

TEST(ChipLayout, CellIndexAgreesWithLinearScan) {
  // Mixed adds, including a port added after devices that surround it.
  ChipLayout chip(7, 5, 3.0);
  chip.addDevice(DeviceKind::Mixer, {3, 2});
  chip.addFlowPort({0, 1});
  chip.addDevice(DeviceKind::Heater, {1, 1});
  chip.addWastePort({6, 3});
  chip.addDevice(DeviceKind::Storage, {5, 3});
  chip.addFlowPort({2, 0});
  chip.addWastePort({4, 4});
  for (int y = -1; y <= chip.height(); ++y)
    for (int x = -1; x <= chip.width(); ++x) {
      const Cell c{x, y};
      std::optional<PortId> port;
      for (const Port& p : chip.ports())
        if (!port && p.cell == c) port = p.id;
      std::optional<DeviceId> device;
      for (const Device& d : chip.devices())
        if (!device && d.cell == c) device = d.id;
      EXPECT_EQ(chip.portAt(c), port) << toString(c);
      EXPECT_EQ(chip.deviceAt(c), device) << toString(c);
      EXPECT_EQ(chip.isPortCell(c), port.has_value()) << toString(c);
      EXPECT_EQ(chip.isDeviceCell(c), device.has_value()) << toString(c);
    }
}

TEST(ChipLayout, NeighborsClippedAtBorders) {
  ChipLayout chip(4, 4);
  EXPECT_EQ(chip.neighbors({0, 0}).size(), 2u);
  EXPECT_EQ(chip.neighbors({1, 0}).size(), 3u);
  EXPECT_EQ(chip.neighbors({1, 1}).size(), 4u);
}

TEST(ChipLayout, RenderShowsGlyphs) {
  ChipLayout chip(3, 2);
  chip.addDevice(DeviceKind::Mixer, {1, 0});
  chip.addFlowPort({0, 0});
  chip.addWastePort({2, 1});
  EXPECT_EQ(chip.render(), "iM.\n..o\n");
}

TEST(FlowPath, ConnectivityChecks) {
  FlowPath good({{0, 0}, {1, 0}, {1, 1}});
  EXPECT_TRUE(good.isConnected());
  EXPECT_TRUE(good.isSimpleConnected());

  FlowPath teleport({{0, 0}, {2, 0}});
  EXPECT_FALSE(teleport.isConnected());

  FlowPath revisits({{0, 0}, {1, 0}, {0, 0}});
  EXPECT_TRUE(revisits.isConnected());
  EXPECT_FALSE(revisits.isSimpleConnected());
}

TEST(FlowPath, OverlapAndCoverage) {
  FlowPath a({{0, 0}, {1, 0}, {2, 0}});
  FlowPath b({{2, 0}, {2, 1}});
  FlowPath c({{5, 5}, {5, 6}});
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.covers(FlowPath({{1, 0}, {2, 0}})));
  EXPECT_FALSE(a.covers(b));
  EXPECT_TRUE(a.coversAll({{0, 0}, {2, 0}}));
}

TEST(FlowPath, LengthInMm) {
  FlowPath p({{0, 0}, {1, 0}, {2, 0}, {2, 1}});
  EXPECT_DOUBLE_EQ(p.lengthMm(3.0), 9.0);  // 3 edges * 3mm
  EXPECT_DOUBLE_EQ(FlowPath({{0, 0}}).lengthMm(3.0), 0.0);
  EXPECT_DOUBLE_EQ(FlowPath().lengthMm(3.0), 0.0);
}

TEST(FlowPath, ToStringUsesChipNames) {
  ChipLayout chip(4, 4);
  chip.addFlowPort({0, 0}, "in1");
  chip.addDevice(DeviceKind::Mixer, {1, 0}, "mixer");
  FlowPath p({{0, 0}, {1, 0}, {2, 0}});
  EXPECT_EQ(p.toString(&chip), "in1 -> mixer -> (2,0)");
}

class RouterFixture : public ::testing::Test {
 protected:
  RouterFixture() : chip_(9, 9, 3.0), router_(chip_) {}
  ChipLayout chip_;
  Router router_;
};

TEST_F(RouterFixture, FindsShortestPath) {
  const auto path = router_.route({0, 0}, {4, 0});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
  EXPECT_TRUE(path->isSimpleConnected());
  EXPECT_EQ(path->front(), (Cell{0, 0}));
  EXPECT_EQ(path->back(), (Cell{4, 0}));
}

TEST_F(RouterFixture, AvoidsBlockedCells) {
  // Wall across x=2, leaving only y=8 open.
  CellSet blocked(9, 9);
  for (int y = 0; y < 8; ++y) blocked.insert({2, y});
  const auto path = router_.route({0, 0}, {4, 0}, &blocked);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->isSimpleConnected());
  for (int y = 0; y < 8; ++y) EXPECT_FALSE(path->contains({2, y}));
  EXPECT_GT(path->size(), 5u);  // detour is longer
}

TEST_F(RouterFixture, ReportsUnreachable) {
  CellSet blocked(9, 9);
  for (int y = 0; y < 9; ++y) blocked.insert({2, y});
  EXPECT_FALSE(router_.route({0, 0}, {4, 0}, &blocked).has_value());
  EXPECT_FALSE(router_.distance({0, 0}, {4, 0}, &blocked).has_value());
}

TEST_F(RouterFixture, DoesNotRouteThroughPorts) {
  // A port in the middle of the only corridor blocks it.
  ChipLayout chip(5, 1, 3.0);
  chip.addFlowPort({2, 0}, "mid");
  Router router(chip);
  EXPECT_FALSE(router.route({0, 0}, {4, 0}).has_value());
  // But the port can be an endpoint.
  EXPECT_TRUE(router.route({0, 0}, {2, 0}).has_value());
}

TEST_F(RouterFixture, RouteViaCoversWaypoints) {
  const std::vector<Cell> waypoints = {{3, 3}, {1, 5}, {6, 2}};
  const auto path = router_.routeVia({0, 0}, waypoints, {8, 8});
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->isConnected());
  for (const Cell& w : waypoints) EXPECT_TRUE(path->contains(w));
  EXPECT_EQ(path->front(), (Cell{0, 0}));
  EXPECT_EQ(path->back(), (Cell{8, 8}));
}

TEST_F(RouterFixture, RouteViaCollinearWaypointsIsShortest) {
  const auto path = router_.routeVia({0, 0}, {{2, 0}, {5, 0}}, {8, 0});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 9u);  // straight line, no detours
  EXPECT_TRUE(path->isSimpleConnected());
}

// routeViaEach with no waypoints is one multi-target search.
TEST_F(RouterFixture, MultiTargetSearchReachesPortEndpointWithoutPassingIt) {
  // A port in the middle of the only corridor: reached as an endpoint, but
  // the endpoint beyond it stays unreachable.
  ChipLayout chip(5, 1, 3.0);
  chip.addFlowPort({2, 0}, "mid");
  Router router(chip);
  const auto paths = router.routeViaEach({0, 0}, {}, {{2, 0}, {4, 0}});
  ASSERT_EQ(paths.size(), 2u);
  ASSERT_TRUE(paths[0].has_value());
  EXPECT_EQ(paths[0]->cells(), (std::vector<Cell>{{0, 0}, {1, 0}, {2, 0}}));
  EXPECT_FALSE(paths[1].has_value());
}

TEST_F(RouterFixture, MultiTargetSearchLeavesUnreachableEndpointEmpty) {
  CellSet blocked(9, 9);
  for (int y = 0; y < 9; ++y) blocked.insert({2, y});
  const auto paths =
      router_.routeViaEach({0, 0}, {}, {{1, 4}, {4, 0}, {9, 0}}, &blocked);
  ASSERT_EQ(paths.size(), 3u);
  ASSERT_TRUE(paths[0].has_value());
  EXPECT_EQ(paths[0]->size(), 6u);
  EXPECT_FALSE(paths[1].has_value());  // behind the wall
  EXPECT_FALSE(paths[2].has_value());  // off the grid
}

TEST_F(RouterFixture, MultiTargetSearchHandlesDuplicateEndpoints) {
  const auto paths = router_.routeViaEach({3, 3}, {}, {{5, 3}, {3, 3}, {5, 3}});
  ASSERT_EQ(paths.size(), 3u);
  ASSERT_TRUE(paths[0].has_value());
  ASSERT_TRUE(paths[2].has_value());
  EXPECT_EQ(paths[0]->cells(), paths[2]->cells());
  EXPECT_EQ(paths[0]->cells(), router_.route({3, 3}, {5, 3})->cells());
  ASSERT_TRUE(paths[1].has_value());
  EXPECT_EQ(paths[1]->cells(), (std::vector<Cell>{{3, 3}}));  // the source
}

TEST_F(RouterFixture, TrivialRoute) {
  const auto path = router_.route({3, 3}, {3, 3});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);
}

}  // namespace
}  // namespace pdw::arch
