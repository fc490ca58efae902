//! `f2pm` — the framework as a command-line tool.
//!
//! ```text
//! f2pm campaign --runs 6 --seed 42 --out history.csv [--quick]
//! f2pm monitor  --seconds 30 --interval 1.5 --out history.csv
//! f2pm evaluate --history history.csv [--window 10]
//! f2pm train    --history history.csv --method rep_tree --out model.f2pm
//! f2pm predict  --model model.f2pm --history history.csv
//! f2pm serve    --model model.f2pm --addr 0.0.0.0:7878 --shards 4
//! f2pm serve    --models-dir models/ --addr 0.0.0.0:7878
//! f2pm models   models/ list
//! f2pm stats    --addr 127.0.0.1:7878 --watch
//! f2pm fleet    top-k --addrs 127.0.0.1:7878,127.0.0.1:7879 --k 10
//! f2pm export-columnar --history history.csv --out store.f2pc
//! f2pm query    --store store.f2pc --model model.f2pm --cohort run
//! ```
//!
//! `campaign` collects data from the simulated testbed; `monitor` samples
//! the *real* local Linux host via `/proc`; `evaluate` compares the §III-D
//! method suite on a history; `train` fits one method and saves it as a
//! checksummed model artifact; `predict` replays a history's last run
//! through an artifact and prints the per-window RTTF estimates; `serve`
//! runs the sharded online prediction service (live per-host RTTF
//! estimates, pushed rejuvenation alerts, hot reload from a model store);
//! `models` operates an on-disk store of versioned model artifacts (list,
//! verify checksums, roll back the active generation); `stats` scrapes a
//! running serve instance's Prometheus-style metrics exposition over the
//! wire protocol, reconnecting through restarts with `--watch`;
//! `fleet` fans out to every instance of a serve fleet and
//! aggregates — a cluster-wide top-K at-risk ranking, per-instance stats
//! rollups, or one merged exposition; `export-columnar` converts a
//! history CSV into the checksummed columnar store and `query`
//! re-scores that store against a
//! model artifact with zone-map pruning and per-cohort error breakdowns.

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "campaign" => commands::campaign(rest),
        "monitor" => commands::monitor(rest),
        "evaluate" => commands::evaluate(rest),
        "train" => commands::train(rest),
        "predict" => commands::predict(rest),
        "serve" => commands::serve(rest),
        "models" => commands::models(rest),
        "stats" => commands::stats(rest),
        "fleet" => commands::fleet(rest),
        "export-columnar" => commands::export_columnar(rest),
        "query" => commands::query(rest),
        "--help" | "-h" | "help" => {
            println!("{}", commands::USAGE);
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
