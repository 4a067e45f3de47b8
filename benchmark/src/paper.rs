//! `paper_micro` / `paper_tpch`: the simulator alone, at the operating
//! points of the paper's Figures 11 and 14. `core` policy decisions and
//! `sim` do all the work; `exec` does none. The simulated outputs are the
//! paper's top-line numbers (I/O volume and stream time per policy) and
//! must repeat bit for bit; the host time per simulated page request is the
//! performance metric.
//!
//! One seed's query placement moves the simulated I/O volume by ~7-20%, so
//! a workload is [`INSTANCES`] independent instances of the operating point
//! (sub-seeds of `--seed`), summed: that brings the seed-to-seed spread of
//! the model numbers to a few percent without touching the point itself.

use std::sync::Arc;
use std::time::Instant;

use scanshare_common::{PolicyKind, ScanShareConfig};
use scanshare_sim::{SimConfig, SimResult, Simulation};
use scanshare_storage::Storage;
use scanshare_workload::{microbench, tpch, TpchConfig, WorkloadSpec};

use crate::common::{ratio, timed, Env, Outcome, CHUNK, PAGE};
use crate::micro::{pool_bytes, stratified_spec, STREAMS};
use crate::stats;

const INSTANCES: u64 = 16;
const SIM_CORES: usize = 8;
/// The policies every rotation simulates, in the order they run.
const POLICIES: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Pbm, PolicyKind::CScan];
const SIM_RUN_SPAN: &str = "sim_run";

/// Which figure's operating point.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// Figure 11: the microbenchmark, pool 40% of the accessed volume,
    /// 700 MB/s.
    Micro,
    /// Figure 14: the TPC-H-like throughput run, pool 30%, 600 MB/s.
    Tpch,
}

impl Point {
    pub fn lineitem_tuples(self) -> u64 {
        match self {
            Point::Micro => 1_000_000,
            Point::Tpch => 375_000,
        }
    }
    fn pool_share(self) -> f64 {
        match self {
            Point::Micro => 0.4,
            Point::Tpch => 0.3,
        }
    }
    fn mb_per_sec(self) -> f64 {
        match self {
            Point::Micro => 700.0,
            Point::Tpch => 600.0,
        }
    }
}

/// One generated instance of the operating point.
struct Instance {
    storage: Arc<Storage>,
    spec: WorkloadSpec,
    pool_bytes: u64,
}

/// The simulated outputs that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct ModelOutput {
    io_bytes: u64,
    stream_time_bits: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl ModelOutput {
    fn of(result: &SimResult) -> Self {
        Self {
            io_bytes: result.total_io_bytes,
            stream_time_bits: result
                .stream_times
                .iter()
                .map(|t| t.as_secs_f64().to_bits())
                .collect(),
            hits: result.buffer.hits,
            misses: result.buffer.misses,
        }
    }
}

struct Inputs {
    point: Point,
    instances: Vec<Instance>,
    /// OPT's I/O volume per instance: the reference every order-preserving
    /// policy is checked against (none may read less than OPT).
    opt_io: Vec<u64>,
    build_s: f64,
    /// Host time of the OPT runs.
    reference_s: f64,
}

fn simulate(env: &Env, point: Point, instance: &Instance, policy: PolicyKind) -> SimResult {
    let sim = Simulation::new(
        Arc::clone(&instance.storage),
        SimConfig {
            scanshare: ScanShareConfig {
                buffer_pool_bytes: instance.pool_bytes,
                policy,
                ..env.config_at(point.mb_per_sec())
            },
            cores: SIM_CORES,
            sharing_sample_interval: None,
        },
    )
    .expect("simulation");
    sim.run(&instance.spec).expect("simulation run")
}

fn setup(env: &Env, point: Point) -> Inputs {
    let tuples = env.scaled(point.lineitem_tuples());
    let (instances, build_s) = timed(|| {
        (0..env.scaled(INSTANCES).max(2))
            .map(|i| {
                let seed = env.seed.wrapping_mul(INSTANCES).wrapping_add(i);
                let (storage, spec) = match point {
                    Point::Micro => {
                        let storage = Storage::with_seed(PAGE, CHUNK, seed);
                        let table = microbench::setup_lineitem(&storage, tuples).expect("lineitem");
                        let spec = stratified_spec(seed, tuples, table, STREAMS);
                        (storage, spec)
                    }
                    Point::Tpch => {
                        let config = TpchConfig {
                            streams: STREAMS,
                            lineitem_tuples: tuples,
                            seed,
                        };
                        let (storage, _tables, spec) =
                            tpch::build(&config, PAGE, CHUNK).expect("tpch");
                        (storage, spec)
                    }
                };
                let pool_bytes = pool_bytes(&storage, env, &spec, point.pool_share());
                Instance {
                    storage,
                    spec,
                    pool_bytes,
                }
            })
            .collect::<Vec<_>>()
    });
    let (opt_io, reference_s) = timed(|| {
        instances
            .iter()
            .map(|instance| simulate(env, point, instance, PolicyKind::Opt).total_io_bytes)
            .collect()
    });
    Inputs {
        point,
        instances,
        opt_io,
        build_s,
        reference_s,
    }
}

/// One rotation: every policy over every instance.
struct Rotation {
    wall_s: f64,
    /// Host seconds of the `Simulation::run` calls, per policy.
    host_s: [f64; 3],
    requests: u64,
    /// `outputs[policy][instance]`.
    outputs: Vec<Vec<ModelOutput>>,
    io_bytes: [u64; 3],
    stream_time_s: [f64; 3],
    hit_ratio: [f64; 3],
}

fn rotate(env: &Env, inputs: &Inputs) -> Rotation {
    let started = Instant::now();
    let mut rotation = Rotation {
        wall_s: 0.0,
        host_s: [0.0; 3],
        requests: 0,
        outputs: Vec::new(),
        io_bytes: [0; 3],
        stream_time_s: [0.0; 3],
        hit_ratio: [0.0; 3],
    };
    for (p, &policy) in POLICIES.iter().enumerate() {
        let (mut hits, mut misses) = (0, 0);
        let mut outputs = Vec::new();
        for (i, instance) in inputs.instances.iter().enumerate() {
            let (result, host_s) = {
                let _span = env.recorder.enter(SIM_RUN_SPAN, Some((p * 100 + i) as u64));
                timed(|| simulate(env, inputs.point, instance, policy))
            };
            rotation.host_s[p] += host_s;
            rotation.io_bytes[p] += result.total_io_bytes;
            rotation.stream_time_s[p] +=
                result.avg_stream_time_secs().unwrap_or(0.0) / inputs.instances.len() as f64;
            hits += result.buffer.hits;
            misses += result.buffer.misses;
            outputs.push(ModelOutput::of(&result));
        }
        rotation.requests += hits + misses;
        rotation.hit_ratio[p] = ratio(hits as f64, (hits + misses) as f64);
        rotation.outputs.push(outputs);
    }
    rotation.wall_s = started.elapsed().as_secs_f64();
    rotation
}

pub fn run(env: &Env, point: Point) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = env.timed_setup(|| setup(env, point));
    out.note(
        "lineitem_tuples",
        env.scaled(point.lineitem_tuples()) as f64,
    );
    out.note("instances", inputs.instances.len() as f64);
    out.note(
        "pool_bytes",
        inputs.instances.iter().map(|i| i.pool_bytes).sum::<u64>() as f64,
    );

    // Three rotations at least: the simulated outputs of every repetition
    // are compared with the first.
    let budget = env.budget(3);
    let mut rotations: Vec<Rotation> = Vec::new();
    while budget.another(rotations.len()) {
        // The traced run records every other rotation, so it also measures
        // what recording costs.
        env.recorder
            .set_enabled(env.trace && rotations.len() % 2 == 0);
        rotations.push(rotate(env, &inputs));
    }
    env.recorder.set_enabled(false);
    let first = &rotations[0];
    for rotation in &rotations {
        for (outputs, reference) in rotation.outputs.iter().zip(&first.outputs) {
            for (output, expected) in outputs.iter().zip(reference) {
                out.check(output == expected);
            }
        }
    }
    // OPT bounds every order-preserving policy from below.
    for (p, policy) in POLICIES.iter().enumerate() {
        if policy.is_order_preserving() {
            for (output, opt) in first.outputs[p].iter().zip(&inputs.opt_io) {
                out.check(output.io_bytes >= *opt);
            }
        }
    }
    out.note("rotations", rotations.len() as f64);

    // Host time per policy: the median over the rotations.
    let host_s = |policy: usize| {
        stats::median(
            &rotations
                .iter()
                .map(|r| r.host_s[policy])
                .collect::<Vec<_>>(),
        )
    };
    if !env.trace {
        out.set("setup_s", setup_s);
        for p in 0..POLICIES.len() {
            out.set(MODEL_IO[p], first.io_bytes[p] as f64);
            out.set(MODEL_STREAM_TIME[p], first.stream_time_s[p]);
        }
        let rates: Vec<f64> = rotations
            .iter()
            .map(|r| r.requests as f64 / r.host_s.iter().sum::<f64>())
            .collect();
        out.set("sim_requests_per_s", stats::median(&rates));
        // No per-request client here; both latency cells carry the median
        // rotation, thirty rotations supporting no tail (see
        // `metrics::NOT_APPLICABLE`).
        let rotation_ms: Vec<f64> = rotations.iter().map(|r| r.wall_s * 1e3).collect();
        out.set("latency_p50_ms", stats::median(&rotation_ms));
        out.set("latency_p99_ms", stats::median(&rotation_ms));
        return out;
    }

    out.set("setup.build_s", inputs.build_s);
    out.set("setup.reference_s", inputs.reference_s);
    out.set("sim.host_s.lru", host_s(0));
    out.set("sim.host_s.pbm", host_s(1));
    out.set("sim.host_s.cscan", host_s(2));
    out.set("sim.host_s.opt", inputs.reference_s);
    out.set("sim.requests", first.requests as f64);
    out.set("sim.hit_ratio.lru", first.hit_ratio[0]);
    out.set("sim.hit_ratio.pbm", first.hit_ratio[1]);
    out.set("sim.hit_ratio.cscan", first.hit_ratio[2]);
    let opt_io: u64 = inputs.opt_io.iter().sum();
    out.set("core.opt.io_bytes", opt_io as f64);
    out.set(
        "core.pbm.io_vs_opt",
        ratio(first.io_bytes[1] as f64, opt_io as f64),
    );
    out.set(
        "core.cscan.io_vs_lru",
        ratio(first.io_bytes[2] as f64, first.io_bytes[0] as f64),
    );

    let walls = |parity: usize| -> Vec<f64> {
        let every_other = rotations.iter().skip(parity).step_by(2);
        every_other.map(|r| r.wall_s).collect()
    };
    out.set_trace_cost(env.recorder.total(SIM_RUN_SPAN), &walls(0), &walls(1));
    out
}

const MODEL_IO: [&str; 3] = [
    "model_io_bytes_lru",
    "model_io_bytes_pbm",
    "model_io_bytes_cscan",
];
const MODEL_STREAM_TIME: [&str; 3] = [
    "model_stream_time_s_lru",
    "model_stream_time_s_pbm",
    "model_stream_time_s_cscan",
];
