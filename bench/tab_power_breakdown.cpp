// §3 table — IC power breakdown of the interscatter ASIC (TSMC 65 nm LP):
// frequency synthesizer 9.69 uW + baseband 8.51 uW + modulator 9.79 uW
// = 28 uW while generating 2 Mbps 802.11b. Plus the scaling sweeps and the
// active-radio comparison the paper's discussion leans on.
#include <cstdio>

#include "backscatter/ic_power.h"
#include "bench_util.h"

int main() {
  using namespace itb;

  bench::header("Tab.power", "IC power breakdown and scaling",
                "synth 9.69 uW + baseband 8.51 uW + modulator 9.79 uW = 28 uW "
                "at 2 Mbps; 3-4 orders of magnitude below active radios");

  std::printf("rate,synth_uw,baseband_uw,modulator_uw,total_uw,energy_pj_per_bit\n");
  for (const auto rate : {wifi::DsssRate::k1Mbps, wifi::DsssRate::k2Mbps,
                          wifi::DsssRate::k5_5Mbps, wifi::DsssRate::k11Mbps}) {
    const auto p = backscatter::active_power(rate, 35.75e6);
    std::printf("%s,%.2f,%.2f,%.2f,%.2f,%.1f\n",
                std::string(wifi::rate_name(rate)).c_str(), p.synthesizer_uw,
                p.baseband_uw, p.modulator_uw, p.total_uw(),
                backscatter::energy_per_bit_pj(rate, 35.75e6));
  }

  bench::note("duty-cycling (2 Mbps): average power vs airtime fraction");
  for (const double duty : {1.0, 0.1, 0.01, 0.001}) {
    std::printf("#   duty %.3f -> %.3f uW\n", duty,
                backscatter::average_power_uw(wifi::DsssRate::k2Mbps, 35.75e6, duty));
  }

  bench::note("comparison with conventional radios (TX power):");
  for (const auto& ref : backscatter::active_radio_references()) {
    std::printf("#   %-42s %10.1f uW\n", ref.name.c_str(), ref.tx_power_uw);
  }
  return 0;
}
