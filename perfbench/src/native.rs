//! The two native workloads: back-to-back `run_pipeline` calls from one
//! caller (a closed loop), at the compute-bound end (dense store, 16
//! sequences) and the I/O-bound end (4-bit packed store, 4 sequences).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use klotski_core::native::{run_pipeline, ExpertStore, NativePipelineConfig, NativeRunResult};
use klotski_moe::attention::AttnMask;
use klotski_moe::config::MoeConfig;
use klotski_moe::gate::{RouteScratch, Routing};
use klotski_moe::model::MoeModel;
use klotski_moe::weights::{ExpertWeights, FfnScratch, QuantizedExpertWeights};
use klotski_tensor::matrix::Matrix;
use klotski_tensor::quant::QuantConfig;

use crate::trace::Tracer;
use crate::{median, peak_rss_mib, process_cpu_s, Args, Digest, Outcome, SplitMix};

/// One native workload's inputs.
pub struct Shape {
    model: MoeConfig,
    n_seqs: usize,
    prompt_len: usize,
    gen_len: usize,
    quant: Option<QuantConfig>,
}

/// The full bench model of the `native_throughput` bin (4 layers × 8
/// experts, top-2, d_model 256, d_ff 1024): each expert is 3 MiB, so a
/// fetch really streams memory. `cheap` is the self-check size.
fn bench_model(cheap: bool) -> MoeConfig {
    if cheap {
        MoeConfig {
            n_layers: 2,
            d_model: 64,
            d_ff: 128,
            n_heads: 4,
            head_dim: 16,
            n_experts: 6,
            top_k: 2,
            vocab: 128,
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

impl Shape {
    /// Compute-bound end: a large group gives every fetched expert many
    /// tokens, hiding the next fetch under expert GEMMs and attention.
    pub fn dense_b16(cheap: bool) -> Self {
        Shape {
            model: bench_model(cheap),
            n_seqs: 16,
            prompt_len: 4,
            gen_len: if cheap { 4 } else { 16 },
            quant: None,
        }
    }

    /// I/O-bound end: few tokens per fetched expert, so packed fetch, the
    /// fused dequant-GEMM, the per-call store build and the prefetch
    /// policy dominate.
    pub fn quant_b4(cheap: bool) -> Self {
        Shape {
            model: bench_model(cheap),
            n_seqs: 4,
            prompt_len: 4,
            gen_len: if cheap { 4 } else { 16 },
            quant: Some(QuantConfig::paper_default()),
        }
    }

    fn generated_tokens(&self) -> usize {
        self.n_seqs * self.gen_len
    }
}

/// Seeded prompt tokens: the only input the program receives.
fn prompts(seed: u64, shape: &Shape) -> Vec<Vec<u32>> {
    let mut rng = SplitMix::new(seed);
    (0..shape.n_seqs)
        .map(|_| {
            (0..shape.prompt_len)
                .map(|_| rng.below(shape.model.vocab as u64) as u32)
                .collect()
        })
        .collect()
}

/// One timed `run_pipeline` call.
struct Call {
    wall_s: f64,
    /// CPU time of every thread of the process during the call.
    cpu_s: f64,
    result: NativeRunResult,
}

/// One set-up: `MoeModel::new` plus one `ExpertStore::from_model`, the
/// cost a user pays before the first call. Pushes its CPU seconds onto
/// `setup_s` and returns the model; the store is dropped at once, since
/// every `run_pipeline` call builds its own. Store builds are
/// `native.store_build` spans in the traced run.
fn set_up(shape: &Shape, tr: &mut Tracer, setup_s: &mut Vec<f64>) -> MoeModel {
    let cpu = process_cpu_s();
    let model = MoeModel::new(shape.model);
    let id = tr.enter("native.store_build");
    let store = ExpertStore::from_model(&model, shape.quant);
    tr.exit(id);
    setup_s.push(process_cpu_s() - cpu);
    drop(black_box(store));
    model
}

pub fn run(args: &Args, shape: Shape) -> Outcome {
    let mut tracer = Tracer::new(args.trace, format!("{}-seed{}", args.workload, args.seed));
    // Set-up CPU seconds: once here, then again after every timed call, so
    // the median covers the same stretch of the run as the calls. Each
    // repetition replaces the model the next call uses (same config, so
    // the same weights), and the old model is dropped first, so the
    // process never holds two.
    let mut setup_s = Vec::new();
    let mut model = set_up(&shape, &mut tracer, &mut setup_s);
    let prompts = prompts(args.seed, &shape);

    // Untimed reference: the sequential per-token generator.
    let reference = model.generate(&prompts, shape.gen_len, AttnMask::Dense);

    let cfg = NativePipelineConfig {
        quant: shape.quant,
        ..Default::default()
    };

    // Closed loop: one caller, back-to-back calls, each timed whole (its
    // store build included) from outside, in wall time and in the CPU time
    // of all the pipeline's threads.
    let mut calls: Vec<Call> = Vec::new();
    let loop_start = Instant::now();
    while calls.is_empty() || loop_start.elapsed().as_secs_f64() < args.seconds {
        let span = tracer.enter("native.run_pipeline");
        let cpu = process_cpu_s();
        let t = Instant::now();
        let result = run_pipeline(&model, black_box(&prompts), shape.gen_len, &cfg);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu;
        tracer.exit(span);
        calls.push(Call {
            wall_s,
            cpu_s,
            result,
        });
        drop(model);
        model = set_up(&shape, &mut tracer, &mut setup_s);
    }

    // Correctness, untimed. Dense calls must equal the reference bit for
    // bit; quantized calls must equal the run's first call.
    let (want_tokens, want_hidden) = match shape.quant {
        None => (&reference.tokens, &reference.final_hidden),
        Some(_) => (&calls[0].result.tokens, &calls[0].result.final_hidden),
    };
    let failed = calls
        .iter()
        .filter(|c| &c.result.tokens != want_tokens || &c.result.final_hidden != want_hidden)
        .count() as u64;
    let quant_token_match = calls[0]
        .result
        .tokens
        .iter()
        .zip(&reference.tokens)
        .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x == y).count())
        .sum::<usize>();

    let tokens = shape.generated_tokens() as f64;
    let rates: Vec<f64> = calls.iter().map(|c| tokens / c.wall_s).collect();
    let cpu_ms: Vec<f64> = calls.iter().map(|c| c.cpu_s * 1e3 / tokens).collect();
    let mut notes = vec![format!(
        "{}: {} calls, {} generated tokens per call, {} failed, median {:.1} tok/s, \
         {:.3} CPU-ms per token, reference token match {}/{}",
        args.workload,
        calls.len(),
        shape.generated_tokens(),
        failed,
        median(&rates),
        median(&cpu_ms),
        quant_token_match,
        shape.generated_tokens(),
    )];

    let mut digest = Digest::default();
    for t in calls[0].result.tokens.iter().flatten() {
        digest.add(u64::from(*t));
    }
    for x in calls[0].result.final_hidden.iter().flatten() {
        digest.add(u64::from(x.to_bits()));
    }
    notes.push(digest.line());

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut correct = failed == 0;
    if args.trace {
        let layer = layer_metrics(&model, &prompts, &shape, &calls, &mut tracer);
        correct &= layer.replay_matches;
        notes.push(format!(
            "replay reproduces the pipeline's tokens and hidden states: {}",
            layer.replay_matches
        ));
        values = layer.values;
        values.insert("native.quant_token_match", quant_token_match as f64);
        values.insert("native.gen_tok_per_s", median(&rates));
        values.insert("trace.cpu_ms_per_item", median(&cpu_ms));
        if let Err(e) = tracer.write(std::path::Path::new(crate::TRACE_DIR)) {
            notes.push(format!("could not write spans: {e}"));
        }
    } else {
        values.insert("cpu_ms_per_item", median(&cpu_ms));
        values.insert("setup_s", median(&setup_s));
        values.insert("peak_rss_mib", peak_rss_mib());
    }
    Outcome {
        correct,
        attempted: calls.len() as u64,
        failed,
        values,
        notes,
    }
}

struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
    replay_matches: bool,
}

/// Per-layer numbers of the traced run: counts from the calls, the store
/// builds' spans, and a replay of one call's work through the layers'
/// public functions, each call wrapped in a span.
fn layer_metrics(
    model: &MoeModel,
    prompts: &[Vec<u32>],
    shape: &Shape,
    calls: &[Call],
    tr: &mut Tracer,
) -> LayerMetrics {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let med = |f: &dyn Fn(&Call) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>());
    let r0 = &calls[0].result;
    let counts_repeat = calls.iter().all(|c| {
        (
            c.result.expert_fetches,
            c.result.prefetch_hits,
            c.result.prefetch_misses,
        ) == (r0.expert_fetches, r0.prefetch_hits, r0.prefetch_misses)
    });
    v.insert("native.counts_repeat", f64::from(u8::from(counts_repeat)));
    let fetches = med(&|c| c.result.expert_fetches as f64);
    let hits = med(&|c| c.result.prefetch_hits as f64);
    let misses = med(&|c| c.result.prefetch_misses as f64);
    v.insert("native.expert_fetches", fetches);
    v.insert("native.prefetch_hits", hits);
    v.insert("native.prefetch_misses", misses);
    if hits + misses > 0.0 {
        v.insert("native.prefetch_hit_ratio", hits / (hits + misses));
    }
    if fetches > 0.0 {
        v.insert("native.prefetch_miss_share", misses / fetches);
    }
    let elapsed_s = med(&|c| c.result.elapsed.as_secs_f64());
    v.insert("native.elapsed_s", elapsed_s);
    v.insert(
        "native.outside_s",
        med(&|c| c.wall_s - c.result.elapsed.as_secs_f64()),
    );

    let builds = tr.totals_of("native.store_build");
    v.insert(
        "native.store_build_s",
        builds.total_s() / builds.count as f64,
    );

    let store = ExpertStore::from_model(model, shape.quant);
    let replay = replay(model, &store, prompts, shape, tr);
    let replay_matches = replay.tokens == calls[0].result.tokens
        && replay.final_hidden == calls[0].result.final_hidden;
    let totals = tr.totals();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    v.insert("moe.attn_block_us", get("moe.attn_block").mean_us());
    v.insert("moe.route_us", get("moe.route").mean_us());
    v.insert(
        "moe.expert_ffn_prefill_us",
        get("moe.expert_ffn_prefill").mean_us(),
    );
    v.insert(
        "moe.expert_ffn_decode_us",
        get("moe.expert_ffn_decode").mean_us(),
    );
    v.insert("native.fetch_us", get("native.fetch").mean_us());
    // The replay runs serially what the pipeline's inference thread
    // computes; fetches belong to the I/O thread, so they are left out.
    let busy_s = get("native.replay").total_s() - get("native.fetch").total_s();
    v.insert("native.unattributed_s", elapsed_s - busy_s);
    v.insert("tensor.expert_ffn_madds", replay.madds as f64);
    v.insert(
        "native.fetch_bytes",
        fetches * replay.bytes_per_fetch as f64,
    );
    LayerMetrics {
        values: v,
        replay_matches,
    }
}

struct Replay {
    tokens: Vec<Vec<u32>>,
    final_hidden: Vec<Vec<f32>>,
    /// Multiply-adds of every expert forward, from tensor sizes.
    madds: u64,
    /// Bytes one expert fetch copies, from tensor sizes.
    bytes_per_fetch: usize,
}

/// One fetched expert in the form the pipeline's slots hold it.
enum Slot {
    Dense(ExpertWeights),
    Packed(QuantizedExpertWeights),
}

/// Walks one call's work serially through the same public functions the
/// pipeline's inference thread calls, in the same order, and fetches
/// every routed expert the way its I/O thread does. Its output must equal
/// the pipeline's bit for bit, which shows the replay did the same work.
fn replay(
    model: &MoeModel,
    store: &ExpertStore,
    prompts: &[Vec<u32>],
    shape: &Shape,
    tr: &mut Tracer,
) -> Replay {
    let root = tr.enter("native.replay");
    let mcfg = *model.config();
    let n_seqs = prompts.len();
    let gen_len = shape.gen_len;
    let mut slot = match shape.quant {
        Some(q) => Slot::Packed(QuantizedExpertWeights::placeholder(q)),
        None => Slot::Dense(ExpertWeights::placeholder()),
    };
    let mut caches: Vec<_> = prompts
        .iter()
        .map(|p| model.new_cache_with_capacity(p.len() + gen_len))
        .collect();
    let mut tokens: Vec<Vec<u32>> = vec![Vec::with_capacity(gen_len); n_seqs];
    let mut hidden: Vec<Vec<f32>> = vec![Vec::new(); n_seqs];
    let mut h: Vec<Vec<f32>> = vec![Vec::new(); n_seqs];
    let mut normed: Vec<Vec<f32>> = vec![Vec::new(); n_seqs];
    let mut tokens_of: Vec<Vec<(usize, f32)>> = vec![Vec::new(); mcfg.n_experts];
    let mut positions = vec![0usize; n_seqs];
    let mut active: Vec<usize> = Vec::with_capacity(n_seqs);
    let mut routing = Routing { picks: Vec::new() };
    let mut route_scratch = RouteScratch::default();
    let mut ffn_scratch = FfnScratch::default();
    let mut logits = model.logits_scratch();
    let mut attn_scratch = model.attn_scratch();
    let mut xs = Matrix::zeros(0, 0);
    let mut rows = Matrix::zeros(0, 0);
    let max_prompt = prompts.iter().map(Vec::len).max().unwrap_or(0);
    let total_steps = max_prompt + gen_len;
    attn_scratch.reserve(n_seqs, total_steps);
    let mut madds = 0u64;
    let mut bytes_per_fetch = 0usize;

    for step in 0..total_steps {
        active.clear();
        for (s, prompt) in prompts.iter().enumerate() {
            let pos = positions[s];
            let tok = if step < prompt.len() {
                if step != pos {
                    continue;
                }
                prompt[pos]
            } else if pos == step && tokens[s].len() < gen_len {
                let next = model.next_token_with(&hidden[s], &mut logits);
                tokens[s].push(next);
                next
            } else {
                continue;
            };
            model.embed_into(tok, pos, &mut h[s]);
            positions[s] += 1;
            active.push(s);
        }
        if active.is_empty() {
            continue;
        }
        let ffn_span = if step < max_prompt {
            "moe.expert_ffn_prefill"
        } else {
            "moe.expert_ffn_decode"
        };
        for layer in 0..mcfg.n_layers {
            tr.span("moe.attn_block", || {
                model.attn_block_batch(
                    layer,
                    &mut h,
                    &active,
                    &mut caches,
                    AttnMask::Dense,
                    &mut attn_scratch,
                )
            });
            tokens_of.iter_mut().for_each(Vec::clear);
            for &s in &active {
                model.moe_norm_into(layer, &h[s], &mut normed[s]);
                tr.span("moe.route", || {
                    model.route_token_into(layer, &normed[s], &mut routing, &mut route_scratch)
                });
                for &(e, w) in &routing.picks {
                    tokens_of[e].push((s, w));
                }
            }
            // Experts in index order: the pipeline combines contributions
            // in that order too, so the sums match bit for bit.
            for (e, group) in tokens_of.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                tr.span("native.fetch", || match &mut slot {
                    Slot::Dense(w) => store.fetch_into(layer, e, w),
                    Slot::Packed(q) => store.fetch_packed_into(layer, e, q),
                });
                xs.resize(group.len(), mcfg.d_model);
                for (r, &(s, _)) in group.iter().enumerate() {
                    xs.row_mut(r).copy_from_slice(&normed[s]);
                }
                tr.span(ffn_span, || match &slot {
                    Slot::Dense(w) => w.forward_batch_into(&xs, &mut rows, &mut ffn_scratch),
                    Slot::Packed(q) => q.forward_batch_into(&xs, &mut rows, &mut ffn_scratch),
                });
                madds += (group.len() * 3 * mcfg.d_model * mcfg.d_ff) as u64;
                bytes_per_fetch = match &slot {
                    Slot::Dense(w) => w.n_params() * std::mem::size_of::<f32>(),
                    Slot::Packed(q) => q.stored_bytes(),
                };
                for (r, &(s, w)) in group.iter().enumerate() {
                    for (hv, &x) in h[s].iter_mut().zip(rows.row(r)) {
                        *hv += w * x;
                    }
                }
            }
        }
        for &s in &active {
            std::mem::swap(&mut hidden[s], &mut h[s]);
        }
    }
    tr.exit(root);
    Replay {
        tokens,
        final_hidden: hidden,
        madds,
        bytes_per_fetch,
    }
}
