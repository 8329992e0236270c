//! `temspc` — the command-line interface of the workspace.
//!
//! ```text
//! temspc simulate  --hours 4 --idv 6 --attack xmv3 --onset 2 --seed 1 [--csv run.csv] [--no-noise]
//! temspc calibrate --runs 4 --hours 2 --out model.tpb [--net-out net.tpb]
//! temspc detect    --model model.tpb --scenario idv6 --hours 4 --onset 1 [--net net.tpb]
//! temspc capture   --out run.cap --scenario idv6 --hours 4 --onset 1 --seed 42
//! temspc replay    --model model.tpb --capture run.cap [--net net.tpb] [--digest]
//! temspc fleet     --plants 8 --threads 4 --hours 2 --attack-fraction 0.25
//!                  [--model-store models/ --cohorts 2]
//!                  [--checkpoint fleet.tpb] [--metrics fleet.prom]
//!                  [--record-captures dir | --replay dir]
//! temspc ingest    serve --model model.tpb --addr 127.0.0.1:4840 [--expect n] [--report s.tpb]
//! temspc ingest    drive --addr 127.0.0.1:4840 --tapes a.cap,b.cap --connections 64
//! temspc store     list|calibrate|evict --dir models/ [--key cohort_0]
//! temspc experiments --mode quick|paper --out results/
//! temspc list
//! ```
//!
//! Run `temspc help` for details.

mod args;
mod commands;

use args::ParsedArgs;

fn main() {
    let parsed = match ParsedArgs::parse_checked(std::env::args().skip(1), commands::USAGE) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let subcommand = if parsed.flag("help") {
        Some("help")
    } else {
        parsed.subcommand()
    };
    let outcome = match subcommand {
        Some("simulate") => commands::simulate(&parsed),
        Some("calibrate") => commands::calibrate(&parsed),
        Some("detect") => commands::detect(&parsed),
        Some("capture") => commands::capture(&parsed),
        Some("replay") => commands::replay(&parsed),
        Some("fleet") => commands::fleet(&parsed),
        Some("ingest") => commands::ingest(&parsed),
        Some("store") => commands::store(&parsed),
        Some("experiments") => commands::experiments(&parsed),
        Some("list") => commands::list(),
        Some("help") | None => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown subcommand '{other}'");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
