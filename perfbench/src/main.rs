//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and why each was chosen.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--cheap]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` the per-layer
//! metrics, derived from spans recorded around calls into each layer.
//! `--cheap` shrinks every workload for the self-check (`selfcheck.py`).

mod native;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// What one workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
/// Every workload reports each of them.
const END_TO_END: [(&str, &str); 3] = [
    ("cpu_ms_per_item", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`. A
/// workload that does not exercise a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 49] = [
    ("moe.expert_ffn_decode_us", "us"),
    ("moe.expert_ffn_prefill_us", "us"),
    ("moe.attn_block_us", "us"),
    ("moe.route_us", "us"),
    ("tensor.expert_ffn_madds", "count"),
    ("native.fetch_bytes", "B"),
    ("native.fetch_us", "us"),
    ("native.store_build_s", "s"),
    ("native.expert_fetches", "count"),
    ("native.prefetch_hits", "count"),
    ("native.prefetch_misses", "count"),
    ("native.prefetch_hit_ratio", "ratio"),
    ("native.prefetch_miss_share", "ratio"),
    ("native.counts_repeat", "bool"),
    ("native.elapsed_s", "s"),
    ("native.outside_s", "s"),
    ("native.unattributed_s", "s"),
    ("native.quant_token_match", "count"),
    ("engine.run_calls", "count"),
    ("engine.run_ms", "ms"),
    ("engine.run_share", "ratio"),
    ("engine.sim_bubble_frac", "ratio"),
    ("model.scenario_gen_ms", "ms"),
    ("serve.loop_self_s", "s"),
    ("serve.traffic_gen_s", "s"),
    ("serve.summarize_s", "s"),
    ("serve.groups", "count"),
    ("serve.mean_queue_delay_s", "s"),
    ("serve.refills", "count"),
    ("serve.preemptions", "count"),
    ("serve.prefill_chunks", "count"),
    ("serve.occupancy", "ratio"),
    ("serve.retries", "count"),
    ("serve.dropped", "count"),
    ("serve.shed", "count"),
    ("serve.hedges", "count"),
    ("serve.wasted_busy_s", "s"),
    ("serve.retry_token_frac", "ratio"),
    ("serve.peak_provisioned", "count"),
    ("sim.goodput_tok_per_s", "tok/s"),
    ("sim.ttft_p50_s", "s"),
    ("sim.ttft_p99_s", "s"),
    ("sim.tpot_p99_s", "s"),
    ("sim.slo_attainment", "ratio"),
    ("sim.replica_hours", "h"),
    ("sim.ttft_growth", "ratio"),
    ("native.gen_tok_per_s", "tok/s"),
    ("sim.req_per_wall_s", "1/s"),
    ("trace.cpu_ms_per_item", "ms"),
];

/// Command-line arguments, checked where they enter.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cheap: bool,
}

const WORKLOADS: [&str; 4] = [
    "native_dense_b16",
    "native_quant_b4",
    "sim_cluster_faults",
    "sim_continuous_serve",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cheap = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--cheap" {
            cheap = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cheap,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "native_dense_b16" => native::run(&args, native::Shape::dense_b16(args.cheap)),
        "native_quant_b4" => native::run(&args, native::Shape::quant_b4(args.cheap)),
        "sim_cluster_faults" => sim::run_cluster(&args),
        "sim_continuous_serve" => sim::run_continuous(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    for n in &out.notes {
        println!("{n}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&out, table, args.trace));
    ExitCode::SUCCESS
}

/// The result line: every metric of `table`, in table order. A per-layer
/// metric the workload did not measure reads 0; an end-to-end metric must
/// have been measured.
fn result_line(out: &Outcome, table: &[(&str, &str)], zero_fill: bool) -> String {
    for name in out.values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match out.values.get(name) {
            Some(&v) => v,
            None if zero_fill => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite");
        if i > 0 {
            metrics.push(',');
        }
        // `{:?}` prints the shortest form that round-trips: every digit kept.
        write!(
            metrics,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct, out.attempted, out.failed, metrics
    )
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// only on `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a digest of a run's deterministic outputs (generated tokens and
/// hidden states, or simulated request outcomes). It is printed in both
/// trace modes so runs of one seed can be checked for identical results.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn line(&self) -> String {
        format!("digest: {:016x}", self.0)
    }
}

/// `struct timespec` as 64-bit Linux lays it out (the benchmark reads
/// `/proc` too, so it is Linux-only).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `Timespec` whose layout matches the
    // C `struct timespec` on 64-bit Linux, and the clock id is one Linux
    // defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The directory spans are written to, relative to the working directory.
pub const TRACE_DIR: &str = ".bench_trace";
