//! Native-path throughput: tokens/sec of the really-executed pipeline,
//! prefill and decode, across batch sizes — the repo's perf trajectory
//! (committed as `BENCH_native.json`, extended per PR, never overwritten
//! blindly).
//!
//! Two sweeps, two axes:
//!
//! **Expert-path sweep** (the PR 3 cells, same model and workloads so the
//! trajectory stays comparable): every cell runs the same workload through
//! [`run_pipeline`] in four modes —
//!
//! * **per-token** — `batch_experts: false`, the retained pre-batching
//!   fallback that computes each routed token as its own matvec chain;
//! * **batched serial / parallel** — expert-level batched GEMMs with 1
//!   worker / the default worker pool, attention still per-token;
//! * **attn-batched** — batched experts *plus* group-batched attention
//!   (`batch_attention: true`): Q/K/V/O as per-group GEMMs and blocked
//!   strided scores/AV kernels in reused scratch.
//!
//! **Attention sweep** (`"model":"attn_heavy"` cells): decode-heavy cells
//! on an attention-dominated shape (wide d_model, modest d_ff, longer
//! contexts — the regime of real large models, where attention is a
//! material share of step time), comparing per-token vs batched attention
//! with the expert path fixed at its best. Full mode gates the ≥1.3×
//! decode win at 32 sequences.
//!
//! **Kernel-backend sweep** (`"model":"kernel_backend"` cells): decode
//! cells with the tensor micro-kernels forced to the scalar reference vs
//! the SIMD backend the default build dispatches to at runtime (AVX2, or
//! SSE2 without it), everything else fixed at the default pipeline. Full
//! mode gates the ≥1.5× decode win at 32 sequences when the AVX2 backend
//! is available.
//!
//! **Quantized-GEMM sweep** (`"model":"quant_gemm"` cells): decode cells
//! with a 4-bit quantized expert store, comparing the staged path
//! (I/O-thread dequantize into a full-precision slot, then dense GEMMs)
//! against the fused path (packed bytes in the slot, dequantization fused
//! into the GEMM panel loop). Full mode gates fused > staged at the
//! largest batch.
//!
//! The bin asserts all modes produce byte-identical tokens and final
//! hidden states (both batching axes are numerics-neutral). It then prints
//! one JSON line per cell, before the speedup gates run, so a failed gate
//! still leaves its measurements; everything in them is deterministic
//! except the wall-clock-derived `*_tps` / `speedup_*` fields, which are
//! excluded from any determinism assertion.
//!
//! `KLOTSKI_CHEAP=1` shrinks the model and sweeps to CI-smoke scale while
//! still executing **both** attention modes with byte-identity asserted —
//! the bit-exactness gate runs on every PR — and only smoke-checks the
//! speedups (shared CI runners make tight ratio asserts flaky).

use std::time::Duration;

use klotski_bench::{cheap_mode, TextTable};
use klotski_core::native::{run_pipeline, NativePipelineConfig, NativeRunResult};
use klotski_moe::config::MoeConfig;
use klotski_moe::model::MoeModel;
use klotski_tensor::quant::QuantConfig;
use klotski_tensor::simd::{cpu_features, detected_backend, KernelBackend};

/// The expert-sweep benchmark model (identical to the PR 3 entries so the
/// trajectory stays comparable). Bigger than the test presets on purpose:
/// each expert is ~3 MB (full) / ~0.75 MB (cheap), so the per-token path
/// actually re-streams weights out of cache and the batched path's
/// amortization is measured, not simulated.
fn bench_model(cheap: bool) -> MoeConfig {
    if cheap {
        MoeConfig {
            n_layers: 2,
            d_model: 128,
            d_ff: 512,
            n_heads: 4,
            head_dim: 32,
            n_experts: 6,
            top_k: 2,
            vocab: 256,
            seed: 77,
        }
    } else {
        MoeConfig {
            n_layers: 4,
            d_model: 256,
            d_ff: 1024,
            n_heads: 8,
            head_dim: 32,
            n_experts: 8,
            top_k: 2,
            vocab: 512,
            seed: 77,
        }
    }
}

/// The attention-sweep model: wide attention (d_model 512, 16 heads)
/// against modest experts, the regime where the attention block is a
/// material share of decode step time (as it is in real large models).
fn attn_heavy_model(cheap: bool) -> MoeConfig {
    if cheap {
        MoeConfig {
            n_layers: 2,
            d_model: 256,
            d_ff: 128,
            n_heads: 8,
            head_dim: 32,
            n_experts: 6,
            top_k: 2,
            vocab: 256,
            seed: 78,
        }
    } else {
        MoeConfig {
            n_layers: 2,
            d_model: 512,
            d_ff: 512,
            n_heads: 16,
            head_dim: 32,
            n_experts: 8,
            top_k: 2,
            vocab: 512,
            seed: 78,
        }
    }
}

fn prompts(n_seqs: usize, len: usize, vocab: usize) -> Vec<Vec<u32>> {
    (0..n_seqs)
        .map(|s| {
            (0..len)
                .map(|p| ((s * 131 + p * 17 + 7) % vocab) as u32)
                .collect()
        })
        .collect()
}

fn tps(tokens: usize, d: Duration) -> f64 {
    tokens as f64 / d.as_secs_f64().max(1e-9)
}

fn ratio(slow: Duration, fast: Duration) -> f64 {
    slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)
}

struct Cell {
    phase: &'static str,
    n_seqs: usize,
    /// Total forward-pass tokens the run processes (prompt + generated).
    tokens: usize,
    per_token: Duration,
    batched_serial: Duration,
    batched_parallel: Duration,
    attn_batched: Duration,
}

/// One attention-sweep cell: per-token vs batched attention, expert path
/// fixed at batched + default workers.
struct AttnCell {
    n_seqs: usize,
    tokens: usize,
    attn_off: Duration,
    attn_on: Duration,
}

/// One kernel-backend cell: scalar-forced vs detected-SIMD micro-kernels,
/// pipeline otherwise at its default best.
struct KernelCell {
    n_seqs: usize,
    tokens: usize,
    scalar: Duration,
    simd: Duration,
}

/// One quantized-GEMM cell: staged (dequantize-then-GEMM) vs fused
/// (GEMM straight off the packed codes) on a 4-bit expert store.
struct QuantCell {
    n_seqs: usize,
    tokens: usize,
    staged: Duration,
    fused: Duration,
}

/// The environment fields recorded in every JSON entry: what the CPU
/// offers and which micro-kernel backend the run actually used.
fn env_json() -> String {
    format!(
        "\"kernel_backend\":\"{}\",\"cpu_features\":\"{}\"",
        detected_backend().name(),
        cpu_features()
    )
}

/// Best-of-2 runs (wall-clock noise) of one pipeline config; asserts the
/// result matches `reference` bit-for-bit before timing counts.
fn timed(
    model: &MoeModel,
    p: &[Vec<u32>],
    gen_len: usize,
    cfg: &NativePipelineConfig,
    reference: &NativeRunResult,
    label: &str,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..2 {
        let r = run_pipeline(model, p, gen_len, cfg);
        assert_eq!(r.tokens, reference.tokens, "{label}: tokens diverged");
        assert_eq!(
            r.final_hidden, reference.final_hidden,
            "{label}: hidden states diverged"
        );
        best = best.min(r.elapsed);
    }
    best
}

fn json_line(mode: &str, c: &Cell) -> String {
    format!(
        "{{\"bench\":\"native_throughput\",\"mode\":\"{}\",\"phase\":\"{}\",\"seqs\":{},\
         \"tokens\":{},\"per_token_tps\":{:.1},\"batched_serial_tps\":{:.1},\
         \"batched_parallel_tps\":{:.1},\"attn_batched_tps\":{:.1},\"speedup_serial\":{:.2},\
         \"speedup_parallel\":{:.2},\"speedup_attn\":{:.2},{}}}",
        mode,
        c.phase,
        c.n_seqs,
        c.tokens,
        tps(c.tokens, c.per_token),
        tps(c.tokens, c.batched_serial),
        tps(c.tokens, c.batched_parallel),
        tps(c.tokens, c.attn_batched),
        ratio(c.per_token, c.batched_serial),
        ratio(c.per_token, c.batched_parallel),
        ratio(c.batched_parallel, c.attn_batched),
        env_json(),
    )
}

fn attn_json_line(mode: &str, c: &AttnCell) -> String {
    format!(
        "{{\"bench\":\"native_throughput\",\"mode\":\"{}\",\"model\":\"attn_heavy\",\
         \"phase\":\"decode\",\"seqs\":{},\"tokens\":{},\"attn_off_tps\":{:.1},\
         \"attn_on_tps\":{:.1},\"speedup_attn\":{:.2},{}}}",
        mode,
        c.n_seqs,
        c.tokens,
        tps(c.tokens, c.attn_off),
        tps(c.tokens, c.attn_on),
        ratio(c.attn_off, c.attn_on),
        env_json(),
    )
}

fn kernel_json_line(mode: &str, c: &KernelCell) -> String {
    format!(
        "{{\"bench\":\"native_throughput\",\"mode\":\"{}\",\"model\":\"kernel_backend\",\
         \"phase\":\"decode\",\"seqs\":{},\"tokens\":{},\"scalar_tps\":{:.1},\
         \"simd_tps\":{:.1},\"speedup_simd\":{:.2},{}}}",
        mode,
        c.n_seqs,
        c.tokens,
        tps(c.tokens, c.scalar),
        tps(c.tokens, c.simd),
        ratio(c.scalar, c.simd),
        env_json(),
    )
}

fn quant_json_line(mode: &str, c: &QuantCell) -> String {
    format!(
        "{{\"bench\":\"native_throughput\",\"mode\":\"{}\",\"model\":\"quant_gemm\",\
         \"phase\":\"decode\",\"seqs\":{},\"tokens\":{},\"staged_tps\":{:.1},\
         \"fused_tps\":{:.1},\"speedup_fused\":{:.2},{}}}",
        mode,
        c.n_seqs,
        c.tokens,
        tps(c.tokens, c.staged),
        tps(c.tokens, c.fused),
        ratio(c.staged, c.fused),
        env_json(),
    )
}

fn expert_sweep(cheap: bool) -> Vec<Cell> {
    let mcfg = bench_model(cheap);
    let model = MoeModel::new(mcfg);
    let batch_sizes: Vec<usize> = if cheap {
        vec![2, 8]
    } else {
        vec![1, 8, 16, 32]
    };
    // Prefill cells are prompt-dominated, decode cells generation-dominated.
    let (prefill_prompt, decode_prompt, decode_gen) = if cheap { (16, 2, 6) } else { (48, 4, 12) };

    println!(
        "== native_throughput: {} layers x {} experts (top-{}), d_model {}, d_ff {} ({}) ==",
        mcfg.n_layers,
        mcfg.n_experts,
        mcfg.top_k,
        mcfg.d_model,
        mcfg.d_ff,
        if cheap { "cheap" } else { "full" },
    );
    println!(
        "per-token = retained matvec fallback; batched = expert-level GEMMs; \
         attn-batched = + group-batched attention"
    );

    let per_token_cfg = NativePipelineConfig {
        batch_experts: false,
        batch_attention: false,
        ..Default::default()
    };
    let serial_cfg = NativePipelineConfig {
        compute_workers: 1,
        batch_attention: false,
        ..Default::default()
    };
    let parallel_cfg = NativePipelineConfig {
        batch_attention: false,
        ..Default::default()
    };
    let attn_cfg = NativePipelineConfig::default();

    let mut cells: Vec<Cell> = Vec::new();
    for &n_seqs in &batch_sizes {
        for (phase, prompt_len, gen_len) in [
            ("prefill", prefill_prompt, 1usize),
            ("decode", decode_prompt, decode_gen),
        ] {
            let p = prompts(n_seqs, prompt_len, mcfg.vocab);
            let reference = run_pipeline(&model, &p, gen_len, &per_token_cfg);
            let per_token = timed(&model, &p, gen_len, &per_token_cfg, &reference, "per-token");
            let batched_serial = timed(
                &model,
                &p,
                gen_len,
                &serial_cfg,
                &reference,
                "batched serial",
            );
            let batched_parallel = timed(
                &model,
                &p,
                gen_len,
                &parallel_cfg,
                &reference,
                "batched parallel",
            );
            let attn_batched = timed(&model, &p, gen_len, &attn_cfg, &reference, "attn batched");
            cells.push(Cell {
                phase,
                n_seqs,
                tokens: n_seqs * (prompt_len + gen_len),
                per_token,
                batched_serial,
                batched_parallel,
                attn_batched,
            });
        }
    }

    let mut table = TextTable::new([
        "phase",
        "seqs",
        "tokens",
        "per-token tok/s",
        "batched tok/s",
        "batched(par) tok/s",
        "attn-batched tok/s",
        "speedup",
    ]);
    for c in &cells {
        table.row([
            c.phase.to_owned(),
            c.n_seqs.to_string(),
            c.tokens.to_string(),
            format!("{:.0}", tps(c.tokens, c.per_token)),
            format!("{:.0}", tps(c.tokens, c.batched_serial)),
            format!("{:.0}", tps(c.tokens, c.batched_parallel)),
            format!("{:.0}", tps(c.tokens, c.attn_batched)),
            format!("{:.2}x", ratio(c.per_token, c.attn_batched)),
        ]);
    }
    table.print();
    cells
}

fn attn_sweep(cheap: bool) -> Vec<AttnCell> {
    let mcfg = attn_heavy_model(cheap);
    let model = MoeModel::new(mcfg);
    let batch_sizes: Vec<usize> = if cheap { vec![2, 8] } else { vec![8, 32] };
    let (prompt_len, gen_len) = if cheap { (8, 8) } else { (24, 24) };

    println!(
        "\n== attention sweep: {} layers x {} experts (top-{}), d_model {} ({} heads), d_ff {} ==",
        mcfg.n_layers, mcfg.n_experts, mcfg.top_k, mcfg.d_model, mcfg.n_heads, mcfg.d_ff,
    );
    println!("decode, prompt {prompt_len} + gen {gen_len}; expert path fixed at batched");

    let off_cfg = NativePipelineConfig {
        batch_attention: false,
        ..Default::default()
    };
    let on_cfg = NativePipelineConfig::default();

    let mut cells = Vec::new();
    for &n_seqs in &batch_sizes {
        let p = prompts(n_seqs, prompt_len, mcfg.vocab);
        let reference = run_pipeline(&model, &p, gen_len, &off_cfg);
        let attn_off = timed(&model, &p, gen_len, &off_cfg, &reference, "attn per-token");
        let attn_on = timed(&model, &p, gen_len, &on_cfg, &reference, "attn batched");
        cells.push(AttnCell {
            n_seqs,
            tokens: n_seqs * (prompt_len + gen_len),
            attn_off,
            attn_on,
        });
    }

    let mut table = TextTable::new([
        "seqs",
        "tokens",
        "attn per-token tok/s",
        "attn batched tok/s",
        "speedup",
    ]);
    for c in &cells {
        table.row([
            c.n_seqs.to_string(),
            c.tokens.to_string(),
            format!("{:.0}", tps(c.tokens, c.attn_off)),
            format!("{:.0}", tps(c.tokens, c.attn_on)),
            format!("{:.2}x", ratio(c.attn_off, c.attn_on)),
        ]);
    }
    table.print();
    cells
}

fn kernel_sweep(cheap: bool) -> Vec<KernelCell> {
    let mcfg = bench_model(cheap);
    let model = MoeModel::new(mcfg);
    let batch_sizes: Vec<usize> = if cheap { vec![2] } else { vec![8, 32] };
    let (prompt_len, gen_len) = if cheap { (2, 6) } else { (4, 12) };

    println!(
        "\n== kernel-backend sweep: scalar vs {} micro-kernels (decode, cpu: {}) ==",
        detected_backend(),
        cpu_features(),
    );
    println!("same pipeline config both sides; only the tensor micro-kernels switch");

    let scalar_cfg = NativePipelineConfig {
        kernel_backend: Some(KernelBackend::Scalar),
        ..Default::default()
    };
    let simd_cfg = NativePipelineConfig {
        kernel_backend: Some(detected_backend()),
        ..Default::default()
    };

    let mut cells = Vec::new();
    for &n_seqs in &batch_sizes {
        let p = prompts(n_seqs, prompt_len, mcfg.vocab);
        let reference = run_pipeline(&model, &p, gen_len, &scalar_cfg);
        let scalar = timed(
            &model,
            &p,
            gen_len,
            &scalar_cfg,
            &reference,
            "scalar kernels",
        );
        let simd = timed(&model, &p, gen_len, &simd_cfg, &reference, "simd kernels");
        cells.push(KernelCell {
            n_seqs,
            tokens: n_seqs * (prompt_len + gen_len),
            scalar,
            simd,
        });
    }

    let mut table = TextTable::new(["seqs", "tokens", "scalar tok/s", "simd tok/s", "speedup"]);
    for c in &cells {
        table.row([
            c.n_seqs.to_string(),
            c.tokens.to_string(),
            format!("{:.0}", tps(c.tokens, c.scalar)),
            format!("{:.0}", tps(c.tokens, c.simd)),
            format!("{:.2}x", ratio(c.scalar, c.simd)),
        ]);
    }
    table.print();
    cells
}

fn quant_sweep(cheap: bool) -> Vec<QuantCell> {
    let mcfg = bench_model(cheap);
    let model = MoeModel::new(mcfg);
    let batch_sizes: Vec<usize> = if cheap { vec![2] } else { vec![8, 32] };
    let (prompt_len, gen_len) = if cheap { (2, 6) } else { (4, 12) };
    let qcfg = QuantConfig::paper_default();

    println!(
        "\n== quantized-GEMM sweep: staged dequant-then-GEMM vs fused ({}-bit experts) ==",
        qcfg.bits,
    );
    println!("staged = I/O thread dequantizes into a dense slot; fused = GEMM off packed codes");

    let staged_cfg = NativePipelineConfig {
        quant: Some(qcfg),
        fused_quant: false,
        ..Default::default()
    };
    let fused_cfg = NativePipelineConfig {
        quant: Some(qcfg),
        fused_quant: true,
        ..Default::default()
    };

    let mut cells = Vec::new();
    for &n_seqs in &batch_sizes {
        let p = prompts(n_seqs, prompt_len, mcfg.vocab);
        let reference = run_pipeline(&model, &p, gen_len, &staged_cfg);
        let staged = timed(&model, &p, gen_len, &staged_cfg, &reference, "staged quant");
        let fused = timed(&model, &p, gen_len, &fused_cfg, &reference, "fused quant");
        cells.push(QuantCell {
            n_seqs,
            tokens: n_seqs * (prompt_len + gen_len),
            staged,
            fused,
        });
    }

    let mut table = TextTable::new(["seqs", "tokens", "staged tok/s", "fused tok/s", "speedup"]);
    for c in &cells {
        table.row([
            c.n_seqs.to_string(),
            c.tokens.to_string(),
            format!("{:.0}", tps(c.tokens, c.staged)),
            format!("{:.0}", tps(c.tokens, c.fused)),
            format!("{:.2}x", ratio(c.staged, c.fused)),
        ]);
    }
    table.print();
    cells
}

fn main() {
    let cheap = cheap_mode();
    let cells = expert_sweep(cheap);
    let attn_cells = attn_sweep(cheap);
    let kernel_cells = kernel_sweep(cheap);
    let quant_cells = quant_sweep(cheap);

    println!("\nall modes byte-identical (tokens + final hidden): confirmed");

    // The measurements are printed before the speedup gates run, so a
    // failed gate still leaves the record it judged.
    println!("\n-- JSON --");
    let mode = if cheap { "cheap" } else { "full" };
    for c in &cells {
        println!("{}", json_line(mode, c));
    }
    for c in &attn_cells {
        println!("{}", attn_json_line(mode, c));
    }
    for c in &kernel_cells {
        println!("{}", kernel_json_line(mode, c));
    }
    for c in &quant_cells {
        println!("{}", quant_json_line(mode, c));
    }

    // Expert-path bar (unchanged since PR 3): on a >= 8-sequence batch,
    // decode must run >= 2x faster batched than per-token. Cheap/CI mode
    // only smoke-checks execution (shared-runner wall clocks are too
    // noisy to gate on).
    let expert_gate = cells
        .iter()
        .filter(|c| c.phase == "decode" && c.n_seqs >= 8)
        .map(|c| ratio(c.per_token, c.batched_parallel))
        .fold(0.0f64, f64::max);
    // Attention-path bar: at 32 sequences on the attention-heavy shape,
    // batched attention must win >= 1.3x over the per-token walk.
    let attn_gate = attn_cells
        .iter()
        .filter(|c| c.n_seqs >= 32)
        .map(|c| ratio(c.attn_off, c.attn_on))
        .fold(0.0f64, f64::max);
    // Kernel-backend bar: at 32 sequences, the SIMD micro-kernels must
    // decode >= 1.5x faster than the scalar reference — gated only when
    // the CPU has AVX2 (runtime dispatch otherwise picks SSE2).
    let simd_gate = kernel_cells
        .iter()
        .filter(|c| c.n_seqs >= 32)
        .map(|c| ratio(c.scalar, c.simd))
        .fold(0.0f64, f64::max);
    // Quantized-GEMM bar: at the largest batch, the fused path must beat
    // staged dequantize-then-GEMM.
    let quant_gate = quant_cells
        .iter()
        .map(|c| (c.n_seqs, ratio(c.staged, c.fused)))
        .max_by_key(|&(n, _)| n)
        .map_or(0.0, |(_, r)| r);
    if cheap {
        println!("decode speedup at >=8 seqs: {expert_gate:.2}x (cheap mode: not gated)");
        println!("attention speedup: cheap mode, not gated");
        println!("kernel-backend and quantized-GEMM speedups: cheap mode, not gated");
    } else {
        println!("decode speedup at >=8 seqs: {expert_gate:.2}x (gate: >=2.00x)");
        assert!(
            expert_gate >= 2.0,
            "batched expert path must be >=2x over per-token decode, got {expert_gate:.2}x"
        );
        println!("batched-attention decode speedup at 32 seqs: {attn_gate:.2}x (gate: >=1.30x)");
        assert!(
            attn_gate >= 1.3,
            "batched attention must be >=1.3x over per-token attention decode at 32 seqs, \
             got {attn_gate:.2}x"
        );
        if KernelBackend::Avx2.is_available() {
            println!("SIMD kernel decode speedup at 32 seqs: {simd_gate:.2}x (gate: >=1.50x)");
            assert!(
                simd_gate >= 1.5,
                "AVX2 kernels must be >=1.5x over scalar decode at 32 seqs, got {simd_gate:.2}x"
            );
        } else {
            println!(
                "SIMD kernel decode speedup at 32 seqs: {simd_gate:.2}x \
                 (not gated: AVX2 backend unavailable, detected {})",
                detected_backend()
            );
        }
        println!("fused quantized-GEMM decode speedup at 32 seqs: {quant_gate:.2}x (gate: >1.00x)");
        assert!(
            quant_gate > 1.0,
            "fused quantized GEMM must beat staged dequantize-then-GEMM at the largest batch, \
             got {quant_gate:.2}x"
        );
    }
}
