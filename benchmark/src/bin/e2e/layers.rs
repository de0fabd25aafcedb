//! The bridge to the `layers` binary (source **R**: single-threaded
//! replays of each layer's public functions) and the budget table that
//! multiplies its per-operation costs by the traced run's counts.
//!
//! `layers` is a separate binary on purpose: it needs APIs below the
//! front door, and when a refactor stops it compiling the end-to-end
//! pass still runs and these rows read `skipped`.

use crate::drain::{Backing, Round};
use crate::jobs::{Job, WindowJob};
use crate::Ctx;
use sa_benchmark::catalog;
use sa_benchmark::report::Report;
use std::process::Command;

/// Run `layers` on the shape of the traced run (job, storage, checkpoint
/// size as already reported) and record what it measured; every replayed
/// metric reads `skipped`, with the reason, when it cannot run.
pub fn replay<J: Job>(ctx: &mut Ctx, backing: Backing) {
    let windowed = J::AGG == WindowJob::AGG;
    let commit_bytes = ctx.report.value("checkpoint.bytes_per_commit").map_or(0, |b| b as usize);
    // The window view converges on one entry per key; the sketch view
    // serves a single merged entry.
    let table_keys = if windowed { sa_benchmark::gen::KEYS } else { 1 };
    let binary = std::env::current_exe().ok().and_then(|p| Some(p.parent()?.join("layers")));
    let output = match binary {
        Some(binary) if binary.exists() => Command::new(&binary)
            .args(["--job", if windowed { "window" } else { "sketch" }])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--table-keys", &table_keys.to_string()])
            .args(["--commit-bytes", &commit_bytes.to_string()])
            .args(["--backing", if backing == Backing::Disk { "disk" } else { "mem" }])
            .arg("--work-dir")
            .arg(ctx.work_dir.join("layers"))
            .args(["--records", &ctx.params.round_records.to_string()])
            .output()
            .map_err(|e| format!("layers could not start: {e}"))
            .and_then(|o| {
                if o.status.success() {
                    Ok(o.stdout)
                } else {
                    Err(format!("layers exited with {}", o.status))
                }
            }),
        _ => Err("the layers binary did not build against this tree".to_string()),
    };
    let report = &mut ctx.report;
    let fallback = match &output {
        Ok(_) => "layers did not report it",
        Err(why) => why.as_str(),
    };
    // One line per metric: `name value` or `name skipped <reason>`;
    // `# key value` lines are notes.
    for line in String::from_utf8_lossy(output.as_deref().unwrap_or_default()).lines() {
        let mut parts = line.splitn(3, ' ');
        let (Some(name), Some(second)) = (parts.next(), parts.next()) else { continue };
        if name == "#" {
            report.note(&format!("layers.{second}"), parts.next().unwrap_or(""));
        } else if catalog::unit_of(name).is_none() {
            continue;
        } else if second == "skipped" {
            report.skip(name, parts.next().unwrap_or("no reason given"));
        } else if let Ok(v) = second.parse::<f64>() {
            report.num(name, v);
        }
    }
    for name in catalog::REPLAYED {
        if report.get(name).is_none() {
            report.skip(name, fallback);
        }
    }
}

/// A numeric note the replay left (`# key value`).
fn replay_note(report: &Report, key: &str) -> Option<f64> {
    report.notes.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.parse().ok())
}

/// Draw the budget table from the replay and the traced round: each
/// layer's CPU cost per input tuple, and the share of the measured cost
/// no row explains.
pub fn budget(report: &mut Report, backing: Backing, cpu_ns_per_tuple: Option<f64>, last: &Round) {
    let observed = &last.observed;
    let tuples = observed.records as f64;
    let snap = &observed.snap;
    let row = |report: &mut Report, layer: &str, value: Option<f64>, why: &str| {
        report.num_or(&format!("budget.{layer}_ns_per_tuple"), value, why);
        value.unwrap_or(0.0)
    };
    let needs_replay = "needs the layers replay";
    let mut explained = 0.0;

    let log = report.value("log.read_ns_per_record");
    explained += row(report, "log", log, needs_replay);
    // The median `LogSpout::next_tuple` call is decode plus in-flight
    // bookkeeping; the one call in 256 that refills the read buffer is an
    // outlier to it, and is the log row above.
    let spout = observed.source_next_ns;
    explained += row(report, "spout", spout, "no source read was timed");
    row(
        report,
        "frame",
        None,
        "the Query front door installs no bulk update, so no link of this job ships frames",
    );
    // Batches shipped ≈ 32 × occupancy samples, over every emitting
    // component (source → aggregation, aggregation → serve).
    let batches: f64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with(".batch_fill"))
        .map(|(_, h)| h.count as f64 * 32.0)
        .sum();
    let channel = report.value("channel.hop_ns_per_batch").map(|hop| hop * batches / tuples);
    explained += row(report, "channel", channel, needs_replay);
    let routing = report.value("routing.hash_ns_per_tuple");
    explained += row(report, "routing", routing, needs_replay);
    let acker = report.value("acker.cycle_ns_per_root");
    explained += row(report, "acker", acker, needs_replay);
    // Median `execute` of the aggregation tasks, update closure included.
    let operator = report.value("operator.execute_us_p50").map(|us| us * 1e3);
    explained += row(report, "operator", operator, "the run recorded no execute sample");

    // The store counts the spout's frontier puts as commits too.
    let frontier_puts = tuples / sa_benchmark::params::FRONTIER_EVERY as f64;
    let commits = (observed.store_commits as f64 - frontier_puts).max(0.0);
    let encode = report.value("checkpoint.encode_us_per_commit");
    let commit_mem = report
        .notes
        .iter()
        .find(|(k, _)| k == "layers.commit_mem_us_p50")
        .and_then(|(_, v)| v.parse::<f64>().ok());
    let checkpoint = encode.zip(commit_mem).map(|(e, c)| (e + c) * 1e3 * commits / tuples);
    explained += row(report, "checkpoint", checkpoint, needs_replay);

    let storage = match (backing, &last.ledger) {
        (Backing::Disk, Some(ledger)) => {
            let inside = ledger.busy_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / tuples;
            // WAL framing (record encode + CRC) happens above `Storage`:
            // a durable store over `MemStorage` minus a plain store.
            let framing = replay_note(report, "layers.commit_framing_us_p50")
                .map_or(0.0, |us| us * 1e3 * commits / tuples);
            Some(inside + framing)
        }
        _ => None,
    };
    explained += row(report, "storage", storage, "memory workload: no Storage backend in the path");

    let epochs = report.value("serving.epochs").unwrap_or(0.0);
    let serving = report.value("serving.publish_us_p50").map(|us| us * 1e3 * epochs / tuples);
    explained += row(report, "serving", serving, needs_replay);

    match cpu_ns_per_tuple {
        Some(total) if total > 0.0 => {
            report.num("budget.unattributed_share", 1.0 - explained / total);
            report.note("budget_total_cpu_ns_per_tuple", total);
            report.note("budget_explained_ns_per_tuple", explained);
        }
        _ => report.skip("budget.unattributed_share", "no untraced round to take the total from"),
    }
}
