//! The per-layer ledger: rates of each layer's public entry points,
//! measured on seeded traces of the calibrated workloads and at the
//! configurations the workloads' experiments use, one span per call.
//!
//! Inputs are built before each timed region, so a span covers only the
//! layer call it names. Rates count measured instructions, the same base
//! as the program's `mlpsim.insts` / `cyclesim.insts` counters, so that
//! counters ÷ rate predicts a sweep's busy time.

use crate::spans::Spans;
use crate::util::{goldens, mrate, Rng};
use crate::Dirs;
use mlp_cyclesim::runahead::RunaheadSim;
use mlp_cyclesim::smt::SmtSim;
use mlp_cyclesim::{CycleSim, CycleSimConfig};
use mlp_experiments::exp::{figure6, sweep1000, table3};
use mlp_experiments::RunScale;
use mlp_isa::chunked::{ChunkedTrace, ChunkedWriter, DEFAULT_CHUNK_INSTS};
use mlp_isa::{BranchInfo, Inst};
use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_predict::{BranchObserver, BranchPredictor, BranchPredictorConfig};
use mlp_serve::cache::ResultCache;
use mlp_surrogate::{corpus, ConfigPoint, Surrogate};
use mlp_workloads::{SharedTrace, TraceStore, WorkloadKind};
use mlpsim::{InOrderPolicy, IssueConfig, MlpsimConfig, Simulator, WindowModel};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Materialized instructions per workload kind: one quick-scale epoch
/// run plus the runner's largest read-ahead slack.
const TRACE_LEN: usize = 1_040_000;
/// Instructions per kind through the codec and the spill tier.
const CODEC_LEN: usize = 600_000;

/// Accumulates `(work, seconds)` into a rate.
#[derive(Default)]
struct Rate {
    work: f64,
    secs: f64,
}

impl Rate {
    fn add(&mut self, work: u64, secs: f64) {
        self.work += work as f64;
        self.secs += secs;
    }

    fn mega(&self) -> f64 {
        mrate(self.work, self.secs)
    }
}

/// How the hierarchy is touched by one instruction.
#[derive(Clone, Copy)]
enum Touch {
    None,
    Load(u64),
    Store(u64),
    Atomic(u64),
    Prefetch(u64),
}

fn touch(i: &Inst) -> Touch {
    match i.mem {
        None => Touch::None,
        Some(m) if i.is_load() && i.is_store() => Touch::Atomic(m.addr),
        Some(m) if i.is_load() => Touch::Load(m.addr),
        Some(m) if i.is_store() => Touch::Store(m.addr),
        Some(m) => Touch::Prefetch(m.addr),
    }
}

/// Measures every layer rate; returns them by metric name.
pub fn measure(
    seed: u64,
    dirs: &Dirs,
    spans: &mut Spans,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    let mut rng = Rng::new(seed);
    let q = RunScale::quick();

    // workloads: in-memory materialization through TraceStore::trace.
    let store = TraceStore::new();
    store.set_cache_bytes(u64::MAX);
    let mut traces: Vec<(WorkloadKind, SharedTrace)> = Vec::new();
    let mut mat = Rate::default();
    for kind in WorkloadKind::ALL {
        let (t, secs) = spans.leaf(
            format!("workloads.TraceStore::trace {}", kind.name()),
            || store.trace(kind, seed, TRACE_LEN),
        );
        mat.add(t.len() as u64, secs);
        traces.push((kind, t));
    }
    m.insert("workloads.materialize_minst_per_s", mat.mega());
    m.insert(
        "workloads.resident_bytes_per_inst",
        store.cached_bytes() as f64 / store.cached_insts().max(1) as f64,
    );

    // isa: the chunk codec on the same columns.
    let mut enc = Rate::default();
    let mut dec = Rate::default();
    for (kind, t) in &traces {
        let insts: Vec<Inst> = (0..CODEC_LEN).map(|i| t.get(i)).collect();
        let mut bytes = Vec::new();
        let (written, secs) = spans.leaf(format!("isa.ChunkedWriter {}", kind.name()), || {
            let mut w = ChunkedWriter::new(&mut bytes, DEFAULT_CHUNK_INSTS)?;
            w.extend(insts.iter().copied())?;
            w.finish()
        });
        written.map_err(|e| format!("chunk encode: {e:?}"))?;
        enc.add(CODEC_LEN as u64, secs);
        let (decoded, secs) = spans.leaf(
            format!("isa.ChunkedTrace::next_chunk {}", kind.name()),
            || -> Result<u64, String> {
                let mut r = ChunkedTrace::new(bytes.as_slice()).map_err(|e| format!("{e:?}"))?;
                let mut n = 0u64;
                while let Some(chunk) = r.next_chunk().map_err(|e| format!("{e:?}"))? {
                    n += chunk.len() as u64;
                    black_box(&chunk);
                }
                Ok(n)
            },
        );
        let decoded = decoded.map_err(|e| format!("chunk decode: {e}"))?;
        if decoded != CODEC_LEN as u64 {
            return Err(format!(
                "chunk decode returned {decoded} of {CODEC_LEN} instructions"
            ));
        }
        dec.add(decoded, secs);
    }
    m.insert("isa.chunk_encode_minst_per_s", enc.mega());
    m.insert("isa.chunk_decode_minst_per_s", dec.mega());

    // workloads + mlpsim: the spill tier at budget 0, then table5's
    // in-order configurations streamed back through run_chunks.
    let spill_dir = dirs.run.join("layer-spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?;
    let spill = TraceStore::new();
    spill.set_cache_bytes(0);
    spill.set_cache_dir(&spill_dir);
    let mut spilled = Rate::default();
    let mut inorder = Rate::default();
    let window = RunScale::window(CODEC_LEN as u64 * 3 / 4);
    for kind in WorkloadKind::ALL {
        let (t, secs) = spans.leaf(
            format!("workloads.TraceStore::trace spill {}", kind.name()),
            || spill.trace(kind, seed, CODEC_LEN),
        );
        if !t.is_spilled() {
            return Err("the budget-0 store did not spill".to_string());
        }
        spilled.add(t.len() as u64, secs);
        for policy in [InOrderPolicy::StallOnMiss, InOrderPolicy::StallOnUse] {
            let cfg = MlpsimConfig::builder()
                .window(WindowModel::InOrder(policy))
                .build();
            let (r, secs) = spans.leaf(
                format!("mlpsim.Simulator::run_chunks {}", kind.name()),
                || Simulator::new(cfg).run_chunks(t.chunks(), window.warmup, window.measure),
            );
            inorder.add(r.insts, secs);
        }
    }
    m.insert("workloads.spill_minst_per_s", spilled.mega());
    m.insert(
        "isa.chunk_bytes_per_inst",
        spill.spilled_bytes() as f64 / spill.cached_insts().max(1) as f64,
    );
    m.insert("mlpsim.inorder_chunks_minst_per_s", inorder.mega());
    spill.clear();

    // mlpsim: the out-of-order epoch kernel at figure6's configurations,
    // one seeded (issue window, ROB) per workload and issue config.
    let mut ooo = Rate::default();
    for (kind, t) in &traces {
        for issue in IssueConfig::ALL {
            let iw = *rng.pick(&figure6::IW_SIZES);
            let robs: Vec<usize> = figure6::ROB_MULTS
                .iter()
                .map(|k| iw * k)
                .chain([figure6::BIG_ROB])
                .collect();
            let rob = *rng.pick(&robs);
            let cfg = MlpsimConfig::builder()
                .issue(issue)
                .window(WindowModel::OutOfOrder {
                    iw,
                    rob,
                    fetch_buffer: 32,
                })
                .build();
            let (r, secs) = spans.leaf(
                format!("mlpsim.Simulator::run_shared {}", kind.name()),
                || Simulator::new(cfg).run_shared(t.soa(), t.len(), q.warmup, q.measure),
            );
            ooo.add(r.insts, secs);
        }
    }
    m.insert("mlpsim.ooo_minst_per_s", ooo.mega());

    // mem and predict on the same instructions.
    let mut classify = Rate::default();
    let mut branch = Rate::default();
    for (kind, t) in &traces {
        let insts: Vec<(u64, Touch)> = (0..t.len())
            .map(|i| t.get(i))
            .map(|i| (i.pc, touch(&i)))
            .collect();
        let ((), secs) = spans.leaf(format!("mem.Hierarchy {}", kind.name()), || {
            let mut h = Hierarchy::new(HierarchyConfig::default());
            for &(pc, access) in &insts {
                black_box(h.ifetch(pc));
                match access {
                    Touch::None => {}
                    Touch::Load(a) => {
                        black_box(h.load(a));
                    }
                    Touch::Store(a) => {
                        black_box(h.store(a));
                    }
                    Touch::Atomic(a) => {
                        black_box(h.load(a));
                        black_box(h.store(a));
                    }
                    Touch::Prefetch(a) => {
                        black_box(h.prefetch(a));
                    }
                }
            }
        });
        classify.add(insts.len() as u64, secs);
        let branches: Vec<(u64, BranchInfo)> = (0..t.len())
            .map(|i| t.get(i))
            .filter_map(|i| i.branch.map(|b| (i.pc, b)))
            .collect();
        let ((), secs) = spans.leaf(format!("predict.BranchPredictor {}", kind.name()), || {
            let mut p = BranchPredictor::new(BranchPredictorConfig::default());
            for &(pc, info) in &branches {
                black_box(p.observe_branch(pc, info));
            }
        });
        branch.add(branches.len() as u64, secs);
    }
    m.insert("mem.classify_minst_per_s", classify.mega());
    m.insert("predict.branch_mbr_per_s", branch.mega());

    // cyclesim: the pipeline at seeded table3 points, the runahead fork
    // at rae-timing's configuration, the SMT fork at smt's.
    let mut pipeline = Rate::default();
    for _ in 0..6 {
        let (kind, t) = rng.pick(&traces);
        let cfg = CycleSimConfig::default()
            .with_window(*rng.pick(&table3::SIZES))
            .with_issue(*rng.pick(&table3::CONFIGS))
            .with_mem_latency(*rng.pick(&table3::LATENCIES));
        let (r, secs) = spans.leaf(
            format!("cyclesim.CycleSim::run_shared {}", kind.name()),
            || CycleSim::new(cfg).run_shared(t.soa(), t.len(), q.cycle_warmup, q.cycle_measure),
        );
        pipeline.add(r.insts, secs);
    }
    m.insert("cyclesim.pipeline_minst_per_s", pipeline.mega());

    let mut runahead = Rate::default();
    for (kind, t) in &traces {
        let mut sim = RunaheadSim::new(CycleSimConfig::default().with_mem_latency(1000), 2048);
        if rng.below(2) == 1 {
            sim = sim.with_value_prediction(mlpsim::ValueMode::LastValue(16 * 1024));
        }
        let mut cursor = t.cursor();
        let (r, secs) = spans.leaf(format!("cyclesim.RunaheadSim::run {}", kind.name()), || {
            sim.run(&mut cursor, q.cycle_warmup, q.cycle_measure)
        });
        runahead.add(r.insts, secs);
    }
    m.insert("cyclesim.runahead_minst_per_s", runahead.mega());

    let mut smt = Rate::default();
    let (warm, insts) = (q.cycle_warmup, q.cycle_measure / 2);
    for _ in 0..2 {
        let (a, ta) = rng.pick(&traces);
        let b = *rng.pick(&WorkloadKind::ALL);
        let tb = store.trace(b, seed + 1, TRACE_LEN);
        let (mut ca, mut cb) = (ta.cursor(), tb.cursor());
        let (r, secs) = spans.leaf(
            format!("cyclesim.SmtSim::run {}+{}", a.name(), b.name()),
            || {
                SmtSim::new(CycleSimConfig::default().with_mem_latency(1000)).run(
                    vec![&mut ca, &mut cb],
                    warm,
                    insts,
                )
            },
        );
        smt.add(r.insts.iter().sum(), secs);
    }
    m.insert("cyclesim.smt_minst_per_s", smt.mega());
    drop(traces);
    store.clear();

    // stats, serve and surrogate on the served reports, read where they
    // live.
    let mut reports: Vec<(String, String)> = Vec::new();
    for g in goldens(&dirs.root)? {
        let text = String::from_utf8(g.bytes).map_err(|_| format!("{} is not utf-8", g.name))?;
        reports.push((g.name, text));
    }
    let bytes: usize = reports.iter().map(|(_, t)| t.len()).sum();
    let mut parse = Rate::default();
    for round in 0..5 {
        let (ok, secs) = spans.leaf(format!("stats.json::parse round {round}"), || {
            reports
                .iter()
                .all(|(_, text)| black_box(mlp_stats::json::parse(text)).is_ok())
        });
        if !ok {
            return Err("a served report does not parse".to_string());
        }
        parse.add(bytes as u64, secs);
    }
    m.insert("stats.json_parse_mb_per_s", parse.mega());

    let cache = ResultCache::new(dirs.run.join("layer-cache"));
    for (exp, text) in &reports {
        cache
            .store(exp, "quick", text.as_bytes())
            .map_err(|e| format!("cache store {exp}: {e}"))?;
    }
    let mut loads = Rate::default();
    for (exp, text) in &reports {
        let (got, secs) = spans.leaf(format!("serve.ResultCache::load {exp}"), || {
            cache.load(exp, "quick")
        });
        if got.as_deref() != Some(text.as_bytes()) {
            return Err(format!(
                "cache load of {exp} did not return the stored report"
            ));
        }
        loads.add(1, secs);
    }
    m.insert(
        "serve.cache_load_ms",
        1e3 * loads.secs / loads.work.max(1.0),
    );

    let corpus_text = reports
        .iter()
        .find(|(exp, _)| exp == "sweep1000")
        .map(|(_, t)| t.as_str())
        .ok_or("the sweep1000 golden is missing")?;
    let rows = corpus::rows_from_report(corpus_text);
    let points: Vec<ConfigPoint> = rows.iter().map(|r| r.point).collect();
    let cpi: Vec<f64> = rows.iter().map(|r| r.cpi).collect();
    let (model, _) = spans.leaf("surrogate.Surrogate::fit_with", || {
        Surrogate::fit_with(
            &points,
            &cpi,
            &mlp_surrogate::default_priors(),
            sweep1000::explore_config().lambda,
        )
    });
    let grid = sweep1000::grid();
    let queries: Vec<ConfigPoint> = (0..20_000).map(|_| *rng.pick(&grid)).collect();
    let (_, secs) = spans.leaf("surrogate.Surrogate::predict", || {
        for p in &queries {
            black_box(model.predict(p));
        }
    });
    m.insert(
        "surrogate.predict_per_s",
        queries.len() as f64 / secs.max(1e-9),
    );
    Ok(m)
}
