#pragma once

/// @file
/// Gate-level models of the processing elements compared in Fig. 15.
///
/// Every PE model describes a unit of equal peak throughput: 64 MACs
/// per cycle. The Anda unit is 16 APUs (each a 64-wide bit-serial
/// group engine finishing a group in M+1 cycles, i.e. 4 MACs/cycle at
/// the full 16-plane precision); a 16x16 MXU therefore holds 16 such
/// units = 256 APUs, matching the paper's array.

#include <string>
#include <vector>

#include "hw/gates.h"
#include "hw/tech.h"

namespace anda {

/// The PE types of the paper's comparison.
enum class PeType {
    kFpFp,      ///< FP16 x FP16 FMA (GPU tensor-core-like).
    kFpInt,     ///< FP16 x INT4 dedicated FMA.
    kIfpu,      ///< iFPU: dynamic BFP conversion + bit-serial weights.
    kFigna,     ///< FIGNA, 14-bit bit-parallel mantissa.
    kFignaM11,  ///< FIGNA variant, 11-bit mantissa.
    kFignaM8,   ///< FIGNA variant, 8-bit mantissa.
    kAnda,      ///< Anda APU group (bit-serial, bit-plane fed).
};

/// Physical metrics of one 64-MAC/cycle unit.
struct PeMetrics {
    double area_mm2 = 0.0;
    double power_mw = 0.0;
};

// The gate inventories below are constants, each built once on first
// use (thread-safe static initialisation) and returned by reference.
/// Gate inventory of one 64-MAC/cycle unit of the given type.
const GateBudget &pe_gate_budget(PeType type);

/// Gate inventory of one BPC lane (64 values, serial emission).
const GateBudget &bpc_lane_budget();

/// Gate inventory of one FP16 vector-unit lane (non-linear functions).
const GateBudget &vector_lane_budget();

/// Area/power of one 64-MAC/cycle unit under the technology params.
PeMetrics pe_metrics(PeType type, const TechParams &tech = tech16());

/// Cycles the Anda APU needs per 64-element group at mantissa length m
/// (m mantissa planes + 1 sign plane).
constexpr int
anda_cycles_per_group(int mantissa_bits)
{
    return mantissa_bits + 1;
}

/// Cycles per 64-element group of the bit-parallel baselines at equal
/// bit-budget normalization (FP16-class paths: 16; FIGNA-Mx: x).
int baseline_cycles_per_group(PeType type);

/// Mantissa width processed by a FIGNA-class PE.
int figna_mantissa(PeType type);

/// Display name.
std::string to_string(PeType type);

/// All PE types in the paper's presentation order.
const std::vector<PeType> &all_pe_types();

}  // namespace anda
