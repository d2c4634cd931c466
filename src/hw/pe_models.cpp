#include "hw/pe_models.h"

#include "common/check.h"

namespace anda {

namespace {

/// One FP16 x FP16 FMA with FP32 accumulation (tensor-core style).
GateBudget
fp_fp_fma()
{
    GateBudget g;
    g += int_multiplier(11, 11);        // Mantissa product.
    g += 2.0 * adder(8);                // Exponent add / bias.
    g += barrel_shifter(48, 48);        // Product-accumulator align.
    g += adder(48);                     // Wide accumulate.
    g += lzc(48);                       // Normalization count.
    g += barrel_shifter(24, 32);        // Normalization shift.
    g += adder(24);                     // Rounding.
    g += registers(150);                // Operand/acc/pipeline state.
    return g;
}

/// One FP16 x INT4 FMA (dedicated FP-INT unit).
GateBudget
fp_int_fma()
{
    GateBudget g;
    g += int_multiplier(11, 4);
    g += adder(8);                      // Exponent path (act only).
    g += barrel_shifter(32, 32);        // Align into FP32 accumulator.
    g += adder(32);
    g += lzc(32);
    g += barrel_shifter(24, 32);
    g += adder(16);                     // Rounding.
    g += registers(76);
    return g;
}

/// Shared FP16 -> BFP group converter: max-exponent tree plus 64
/// aligners of the given output mantissa width (used each time a group
/// is read from FP16 storage -- iFPU/FIGNA pay this on every access).
GateBudget
group_converter(int out_mantissa)
{
    GateBudget g;
    g += max_tree(64, 5);
    g += 64.0 * barrel_shifter(out_mantissa, 16);
    g += registers(32 * out_mantissa);  // Converted operand staging.
    return g;
}

/// FP32 accumulator (cross-group accumulation).
GateBudget
fp32_accumulator()
{
    GateBudget g;
    g += barrel_shifter(32, 32);
    g += adder(32);
    g += lzc(32);
    g += registers(32);
    return g;
}

/// iFPU unit: dynamic conversion to an extended 25-bit mantissa and
/// bit-serial INT4 weights (4 parallel bit-slices sustain 64 MACs/cy).
GateBudget
ifpu_unit()
{
    GateBudget g;
    g += group_converter(25);
    for (int slice = 0; slice < 4; ++slice) {
        g += 64.0 * GateBudget{25.0, 0.0, 25.0 * Activity::kArithmetic};
        g += adder_tree(64, 25);
    }
    g += 4.0 * adder(32);               // Slice shift-accumulate.
    g += registers(64 * 4 * 2);         // Weight double buffer.
    g += fp32_accumulator();
    g += barrel_shifter(32, 32);        // Output convert to FP16.
    g += lzc(32);
    g += control(24);
    return g;
}

/// FIGNA unit with an x-bit mantissa datapath: converts on every
/// access (FP16 storage), multiplies bit-parallel.
GateBudget
figna_unit(int x)
{
    GateBudget g;
    g += group_converter(x);
    g += 64.0 * int_multiplier(x, 4);
    g += adder_tree(64, x + 4);
    g += registers(64 * 4 * 2);         // Weight double buffer.
    g += barrel_shifter(32, 32);        // Scale/convert output.
    g += adder(32);
    g += lzc(32);
    g += fp32_accumulator();
    g += control(12);
    return g;
}

/// Serial datapath of one Anda APU: 64-wide bit-plane engine. No
/// converter and no per-element aligners -- the bit-plane layout
/// already aligned the mantissas at compression time.
GateBudget
anda_apu_core()
{
    GateBudget g;
    g += 64.0 * mux2(5);                // Sign-apply on weights.
    g += 64.0 * GateBudget{4.0, 0.0, 4.0 * Activity::kArithmetic};
    g += adder_tree(64, 5);             // One bit-plane per cycle.
    g += adder(26);                     // Partial-sum shift-accumulate.
    g += registers(26);
    return g;
}

/// A 64-MAC/cycle Anda unit: 16 bit-serial APU cores. Because each core
/// emits one finished group dot product only every M+1 cycles, the unit
/// shares the broadcast weight double buffer, a pair of time-
/// multiplexed output converters, and the cross-group FP accumulators.
GateBudget
anda_unit()
{
    GateBudget g;
    g += 16.0 * anda_apu_core();
    g += registers(64 + 8);             // Broadcast sign plane + exp.
    g += registers(64 * 4 * 2);         // Shared weight double buffer.
    for (int pipe = 0; pipe < 2; ++pipe) {
        g += barrel_shifter(26, 16);    // Dynamic output shift.
        g += adder(8);                  // Exponent add.
        g += lzc(26);                   // FP16 pack.
        g += fp32_accumulator();
    }
    g += registers(16 * 32);            // Per-core accumulator state.
    g += control(32);                   // Bit-serial sequencing.
    return g;
}

/// Builds the inventory of one 64-MAC/cycle unit of the given type.
GateBudget
build_pe_gate_budget(PeType type)
{
    switch (type) {
    case PeType::kFpFp:
        return 64.0 * fp_fp_fma();
    case PeType::kFpInt:
        return 64.0 * fp_int_fma();
    case PeType::kIfpu:
        return ifpu_unit();
    case PeType::kFigna:
        return figna_unit(14);
    case PeType::kFignaM11:
        return figna_unit(11);
    case PeType::kFignaM8:
        return figna_unit(8);
    case PeType::kAnda:
        return anda_unit();
    }
    ANDA_FAIL("unknown PE type");
}

GateBudget
build_bpc_lane_budget()
{
    GateBudget g;
    g += max_tree(64, 5);                     // Max exponent catcher.
    g += 64.0 * registers(11 + 5);            // Shift regs + diff ctr.
    g += 64.0 * comparator(5);                // diff == 0 checks.
    g += registers(64 * 2 + 80);              // Packager staging.
    g += control(12);
    return g;
}

GateBudget
build_vector_lane_budget()
{
    // One FP16 multiply-add-compare lane with LUT-based nonlinearity.
    GateBudget g;
    g += int_multiplier(11, 11);
    g += fp32_accumulator();
    g += registers(64);
    g += control(8);
    return g;
}

}  // namespace

const GateBudget &
pe_gate_budget(PeType type)
{
    // Built once, indexed by the enum value.
    static const std::vector<GateBudget> table = [] {
        std::vector<GateBudget> t(all_pe_types().size());
        for (PeType pe : all_pe_types()) {
            t[static_cast<std::size_t>(pe)] = build_pe_gate_budget(pe);
        }
        return t;
    }();
    const auto i = static_cast<std::size_t>(type);
    ANDA_CHECK(i < table.size(), "unknown PE type");
    return table[i];
}

const GateBudget &
bpc_lane_budget()
{
    static const GateBudget g = build_bpc_lane_budget();
    return g;
}

const GateBudget &
vector_lane_budget()
{
    static const GateBudget g = build_vector_lane_budget();
    return g;
}

PeMetrics
pe_metrics(PeType type, const TechParams &tech)
{
    const GateBudget &g = pe_gate_budget(type);
    PeMetrics m;
    m.area_mm2 = g.nand2() * tech.nand2_um2 * 1e-6;
    const double dynamic_mw =
        g.activity * tech.nand2_toggle_fj * 1e-15 * tech.clock_hz * 1e3;
    const double leak_mw = g.nand2() * tech.nand2_leak_nw * 1e-6;
    m.power_mw = dynamic_mw + leak_mw;
    return m;
}

int
baseline_cycles_per_group(PeType type)
{
    switch (type) {
    case PeType::kFpFp:
    case PeType::kFpInt:
    case PeType::kIfpu:
    case PeType::kFigna:
        return 16;
    case PeType::kFignaM11:
        return 11;
    case PeType::kFignaM8:
        return 8;
    case PeType::kAnda:
        return 16;  // Peak (full-precision) rate; see per-GeMM model.
    }
    ANDA_FAIL("unknown PE type");
}

int
figna_mantissa(PeType type)
{
    switch (type) {
    case PeType::kFigna:
        return 14;
    case PeType::kFignaM11:
        return 11;
    case PeType::kFignaM8:
        return 8;
    default:
        return 0;
    }
}

std::string
to_string(PeType type)
{
    switch (type) {
    case PeType::kFpFp:
        return "FP-FP";
    case PeType::kFpInt:
        return "FP-INT";
    case PeType::kIfpu:
        return "iFPU";
    case PeType::kFigna:
        return "FIGNA";
    case PeType::kFignaM11:
        return "FIGNA-M11";
    case PeType::kFignaM8:
        return "FIGNA-M8";
    case PeType::kAnda:
        return "Anda";
    }
    return "?";
}

const std::vector<PeType> &
all_pe_types()
{
    static const std::vector<PeType> types = {
        PeType::kFpFp,   PeType::kFpInt,    PeType::kIfpu,
        PeType::kFigna,  PeType::kFignaM11, PeType::kFignaM8,
        PeType::kAnda,
    };
    return types;
}

}  // namespace anda
