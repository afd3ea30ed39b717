/// \file amret.hpp
/// \brief Umbrella header for the amret library.
///
/// amret is a from-scratch C++20 reproduction of "Gradient Approximation of
/// Approximate Multipliers for High-Accuracy Deep Neural Network Retraining"
/// (DATE 2025). See README.md for a tour and DESIGN.md for the system map.
#pragma once

#include "accel/energy_model.hpp"      // accelerator-level energy model
#include "als/als.hpp"                 // approximate logic synthesis
#include "analysis/certificate.hpp"    // safety certificates + cache
#include "analysis/graph.hpp"          // static integer-graph analyzer
#include "analysis/interval.hpp"       // interval / ternary lattices
#include "appmult/appmult.hpp"         // multiplier LUTs + error metrics
#include "appmult/registry.hpp"        // Table I named multipliers
#include "appmult/error_stats.hpp"     // structural error analysis
#include "appmult/signed_mult.hpp"     // signed AppMult adapter
#include "approx/approx_conv.hpp"      // AppMult conv/linear layers
#include "approx/assignment.hpp"       // per-layer multiplier assignments
#include "approx/depthwise.hpp"        // AppMult depthwise conv
#include "approx/inference.hpp"        // integer-only deployment engine
#include "core/grad_lut.hpp"           // the paper's gradient approximation
#include "core/hws.hpp"                // half-window-size selection
#include "core/smoothing.hpp"          // Eq. 4-6 primitives
#include "data/dataset.hpp"            // datasets + loader
#include "data/shapes.hpp"             // geometric-shapes task
#include "kernels/depthwise.hpp"       // direct depthwise kernel
#include "kernels/im2col.hpp"          // im2col/col2im planner
#include "kernels/layout.hpp"          // blocked panel layouts + fused im2col
#include "kernels/lut_kernels.hpp"     // LUT-GEMM kernels
#include "kernels/quantize.hpp"        // workspace-backed quantization
#include "kernels/tuning.hpp"          // kernel tuning constants
#include "kernels/workspace.hpp"       // bump-allocated scratch arena
#include "explore/dse.hpp"             // mixed-precision assignment search
#include "explore/pareto.hpp"          // design-space exploration
#include "models/models.hpp"           // LeNet / VGG / ResNet
#include "multgen/addergen.hpp"        // exact + approximate adders
#include "multgen/behavioral_models.hpp" // Mitchell / DRUM / SSM models
#include "multgen/multgen.hpp"         // multiplier generators
#include "netlist/analysis.hpp"        // STA + power
#include "netlist/netlist.hpp"         // gate-level netlist
#include "netlist/opt.hpp"             // exact netlist optimization
#include "netlist/serialize.hpp"       // netlist (de)serialization
#include "netlist/sim.hpp"             // exhaustive simulation
#include "netlist/techmap.hpp"         // NAND/INV technology mapping
#include "nn/layers.hpp"               // float layers
#include "obs/obs.hpp"                 // counters + gauges
#include "obs/report.hpp"              // trace loading + self-time folding
#include "obs/trace.hpp"               // scoped-span tracer
#include "nn/loss.hpp"                 // loss + metrics
#include "nn/module.hpp"               // module base
#include "nn/optim.hpp"                // SGD / Adam
#include "quant/quant.hpp"             // Eq. 7/8 quantization
#include "runtime/parallel.hpp"        // deterministic parallel_for
#include "runtime/thread_pool.hpp"     // fixed-size worker pool
#include "serve/loadgen.hpp"           // closed-loop load generator
#include "serve/registry.hpp"          // multi-model LRU registry
#include "serve/serve.hpp"             // batching inference server
#include "tensor/tensor.hpp"           // dense tensors
#include "train/checkpoint.hpp"        // model persistence
#include "train/hws_search.hpp"        // LeNet-based HWS sweep
#include "train/pipeline.hpp"          // Fig. 1 retraining flow
#include "train/trainer.hpp"           // training loop
#include "verify/bit_bounds.hpp"       // netlist error-bound dataflow
#include "verify/diagnostics.hpp"     // typed static-analysis findings
#include "verify/lut_check.hpp"        // product/gradient LUT invariants
#include "verify/netlist_check.hpp"    // netlist structural checks
#include "verify/verify.hpp"           // whole-registry verification
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
