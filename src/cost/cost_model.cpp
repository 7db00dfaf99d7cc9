#include "cost/cost_model.h"

#include <cstdio>

namespace magma::cost {

double BillOfMaterials::total() const {
  double sum = 0;
  for (const LineItem& item : items) sum += item.total();
  return sum;
}

std::string BillOfMaterials::to_table() const {
  std::string out = title + "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-22s %12s %5s %12s  %s\n", "Item",
                "Unit (US$)", "Qty", "Total (US$)", "Notes");
  out += line;
  for (const LineItem& item : items) {
    std::snprintf(line, sizeof(line), "  %-22s %12.0f %5d %12.0f  %s\n",
                  item.item.c_str(), item.unit_cost_usd, item.quantity,
                  item.total(), item.notes.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-22s %12s %5s %12.0f\n", "TOTAL", "",
                "", total());
  out += line;
  return out;
}

BillOfMaterials typical_site_capex() {
  BillOfMaterials bom;
  bom.title = "Table 2: RAN CapEx for a typical Magma site";
  bom.items = {
      {"LTE eNodeB", 4000, 3,
       "Baicells Nova 233: 1W, 3.5GHz, 96 user, 2x2 MIMO"},
      {"AGW", 450, 1, "Same as used in experiments"},
      {"Accessories", 450, 3,
       "18dBi sector antenna, RF cables, connectors, grounding"},
  };
  return bom;
}

BillOfMaterials accessparks_traditional() {
  BillOfMaterials bom;
  bom.title = "AccessParks per-site installed cost (traditional core)";
  bom.items = {
      {"RAN", 7950, 1, "Identical RAN and backup power"},
      {"Core HW", 1200, 1, ""},
      {"Core SW", 2000, 1, "Licenses/support"},
      {"Field Eng.", 200, 1, "Installation"},
      {"LTE Eng.", 5000, 1, "Planning, core config"},
  };
  return bom;
}

BillOfMaterials accessparks_magma() {
  BillOfMaterials bom;
  bom.title = "AccessParks per-site installed cost (Magma)";
  bom.items = {
      {"RAN", 7950, 1, "Identical RAN and backup power"},
      {"Core HW", 300, 1, ""},
      {"Core SW", 600, 1, "Licenses/support"},
      {"Field Eng.", 200, 1, "Installation"},
      {"LTE Eng.", 330, 1, "Planning, core config"},
  };
  return bom;
}

CostComparison accessparks_comparison() {
  CostComparison cmp;
  cmp.traditional_usd = accessparks_traditional().total();
  cmp.magma_usd = accessparks_magma().total();
  return cmp;
}

double traditional_per_site_cost(const CoreCostModel& model, int sites) {
  if (sites <= 0) return 0;
  return model.traditional_core_fixed_usd / sites +
         model.traditional_per_site_usd;
}

double magma_per_site_cost(const CoreCostModel& model, int sites) {
  constexpr int kAmortizationMonths = 36;
  if (sites <= 0) return 0;
  return model.magma_orchestrator_monthly_usd * kAmortizationMonths / sites +
         model.magma_agw_per_site_usd;
}

}  // namespace magma::cost
