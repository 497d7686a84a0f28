#include "analysis/experiments.hpp"

namespace pmsched {
namespace analysis {

Table1Row table1Row(const std::string& name, const Graph& g) {
  Table1Row row;
  row.circuit = name;
  row.criticalPath = criticalPathLength(g);
  row.ops = countOps(g);
  return row;
}

std::vector<Table1Row> table1() {
  std::vector<Table1Row> rows;
  for (const auto& c : circuits::paperCircuits()) rows.push_back(table1Row(c.name, c.build()));
  return rows;
}

PowerManagedDesign buildDesign(const Graph& g, int steps, const Table2Options& opts) {
  PowerManagedDesign design = applyPowerManagement(g, steps, opts.ordering);
  if (opts.mode == GatingMode::Shared) applySharedGating(design);
  return design;
}

Table2Row table2Row(const std::string& name, const Graph& g, int steps,
                    const Table2Options& opts) {
  PowerManagedDesign design = buildDesign(g, steps, opts);
  const ActivationResult activation = analyzeActivation(design);
  const OpPowerModel model = OpPowerModel::paperWeights();
  const UnitCosts costs = UnitCosts::defaults();

  Table2Row row;
  row.circuit = name;
  row.steps = steps;
  row.pmMuxes = design.managedCount();
  row.sharedGated = design.sharedGatedCount();
  row.avgMux = activation.averageOf(ResourceClass::Mux);
  row.avgComp = activation.averageOf(ResourceClass::Comparator);
  row.avgAdd = activation.averageOf(ResourceClass::Adder);
  row.avgSub = activation.averageOf(ResourceClass::Subtractor);
  row.avgMul = activation.averageOf(ResourceClass::Multiplier);
  row.powerReductionPct = activation.reductionPercent(model);

  const ResourceVector unitsBase = minimizeResources(g, steps, costs);
  const ResourceVector unitsPm = minimizeResources(design.graph, steps, costs);
  const double baseCost = costs.costOf(unitsBase);
  row.areaIncrease = baseCost > 0 ? costs.costOf(unitsPm) / baseCost : 1.0;
  return row;
}

std::vector<Table2Row> table2(const Table2Options& opts) {
  std::vector<Table2Row> rows;
  for (const auto& c : circuits::paperCircuits()) {
    const Graph g = c.build();
    for (const int steps : circuits::tableIISteps(c.name))
      rows.push_back(table2Row(c.name, g, steps, opts));
  }
  return rows;
}

namespace {

/// Schedule, bind, map and measure one machine (baseline or PM).
struct MappedMachine {
  RtlPowerResult power;
  double controllerArea = 0;
  int gatedLoads = 0;
};

MappedMachine buildAndMeasure(const PowerManagedDesign& design, bool gating, int samples,
                              Rng& rng) {
  const Schedule sched =
      minimizeSchedule(design.graph, design.steps, UnitCosts::defaults()).schedule;

  const Binding binding = bindDesign(design.graph, sched);
  const ActivationResult activation = analyzeActivation(design);
  const ControllerSpec ctrl = synthesizeController(design, sched, binding, activation);

  MappedMachine machine;
  machine.controllerArea = ctrl.estimatedArea();
  machine.gatedLoads = gating ? ctrl.gatedLoadCount() : 0;

  const RtlDesign rtl =
      mapDesign(design, sched, binding, activation, RtlOptions{gating});
  machine.power = measurePower(rtl, design.graph, samples, rng, /*checkFunctional=*/true);
  return machine;
}

}  // namespace

Table3Row table3Row(const std::string& name, const Graph& g, int steps,
                    const Table3Options& opts) {
  Table3Row row;
  row.circuit = name;
  row.steps = steps;

  Rng rngBase(opts.seed);
  Rng rngPm(opts.seed);  // identical vectors for both machines

  const PowerManagedDesign baseline = unmanagedDesign(g, steps);
  const MappedMachine orig = buildAndMeasure(baseline, false, opts.samples, rngBase);

  const PowerManagedDesign managed = buildDesign(g, steps, opts.schedule);
  const MappedMachine pm = buildAndMeasure(managed, true, opts.samples, rngPm);

  row.areaOrig = orig.power.area;
  row.areaNew = pm.power.area;
  row.areaRatio = orig.power.area > 0 ? pm.power.area / orig.power.area : 1.0;
  row.powerOrig = orig.power.energyPerSample();
  row.powerNew = pm.power.energyPerSample();
  row.reductionPct =
      row.powerOrig > 0 ? (row.powerOrig - row.powerNew) / row.powerOrig * 100.0 : 0.0;
  row.functionalMismatches =
      orig.power.functionalMismatches + pm.power.functionalMismatches;
  row.controllerGatedLoads = pm.gatedLoads;
  row.controllerAreaOrig = orig.controllerArea;
  row.controllerAreaNew = pm.controllerArea;
  return row;
}

std::vector<Table3Row> table3(const Table3Options& opts) {
  // The paper validates dealer at 6 steps, gcd at 7 and vender at 6.
  std::vector<Table3Row> rows;
  rows.push_back(table3Row("dealer", circuits::dealer(), 6, opts));
  rows.push_back(table3Row("gcd", circuits::gcd(), 7, opts));
  rows.push_back(table3Row("vender", circuits::vender(), 6, opts));
  return rows;
}

std::vector<AbsdiffFigure> absdiffFigures() {
  const Graph g = circuits::absdiff();
  const OpPowerModel model = OpPowerModel::paperWeights();

  std::vector<AbsdiffFigure> figures;
  for (const int steps : {2, 3}) {
    for (const bool pm : {false, true}) {
      AbsdiffFigure fig;
      fig.steps = steps;
      fig.powerManaged = pm;

      PowerManagedDesign design =
          pm ? applyPowerManagement(g, steps) : unmanagedDesign(g, steps);
      fig.pmMuxes = design.managedCount();

      const MinimizedSchedule minimized =
          minimizeSchedule(design.graph, steps, UnitCosts::defaults());
      fig.subtractors = minimized.units.of(ResourceClass::Subtractor);
      fig.scheduleText = minimized.schedule.render(design.graph);

      const ActivationResult activation = analyzeActivation(design);
      fig.powerReductionPct = activation.reductionPercent(model);
      figures.push_back(std::move(fig));
    }
  }
  return figures;
}

}  // namespace analysis
}  // namespace pmsched
