// Deployment cost model — reproduces the economics the paper argues from:
// Table 2 (RAN CapEx for a typical Magma site) and Table 3 (AccessParks's
// per-site installed cost, traditional core vs Magma, −43%).
//
// The numbers are the paper's own (they are inputs, not measurements); the
// model exists so the examples and benches can compute per-site and
// per-network costs for arbitrary deployments, including the scale-down
// story (§2.2): how cost varies with site count under a traditional core's
// large fixed cost versus Magma's per-site AGW.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace magma::cost {

struct LineItem {
  std::string item;
  double unit_cost_usd = 0;
  int quantity = 1;
  std::string notes;

  double total() const { return unit_cost_usd * quantity; }
};

struct BillOfMaterials {
  std::string title;
  std::vector<LineItem> items;

  double total() const;
  // Formatted like the paper's tables (markdown-ish, fixed columns).
  std::string to_table() const;
};

// Table 2: active RAN equipment for a typical Magma site (3x Baicells Nova
// 233, one AGW, accessories) — US$18,760 as printed (the paper's stated
// total; see bench/table2_site_cost for the line-item arithmetic).
BillOfMaterials typical_site_capex();

// Table 3 rows: per-site installed cost for AccessParks-like deployments.
BillOfMaterials accessparks_traditional();
BillOfMaterials accessparks_magma();

struct CostComparison {
  double traditional_usd = 0;
  double magma_usd = 0;
  double savings_usd() const { return traditional_usd - magma_usd; }
  double savings_fraction() const {
    return traditional_usd == 0 ? 0 : savings_usd() / traditional_usd;
  }
};

CostComparison accessparks_comparison();

// Scale-down model (§2.2): a traditional packet core has a large fixed cost
// amortized over sites; Magma adds a small per-site AGW instead. Returns
// per-site cost at the given network size.
struct CoreCostModel {
  double traditional_core_fixed_usd = 150000;  // EPC appliance + licenses
  double traditional_per_site_usd = 3200;      // per-site core HW/SW share
  // A minimal orchestrator is "three virtual machine instances in a cloud"
  // (§3.2) — ~$300/month; the FreedomFi-scale deployment of §4.3.2 costs
  // ~$4,000/month for 5,370 AGWs (set this field accordingly per scenario).
  double magma_orchestrator_monthly_usd = 300;
  double magma_agw_per_site_usd = 450 + 600;  // AGW HW + support share
};

double traditional_per_site_cost(const CoreCostModel& model, int sites);
// The orchestrator's monthly cost is amortized over three years.
double magma_per_site_cost(const CoreCostModel& model, int sites);

}  // namespace magma::cost
