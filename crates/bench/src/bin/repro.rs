//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p griphon-bench --bin repro -- <target>
//! cargo run -p griphon-bench --bin repro -- --list
//! ```
//!
//! The target set — names, descriptions, and runners — lives in one
//! place, `griphon_bench::registry`; usage, `--list`, and dispatch are
//! all derived from that table so they can never disagree. See
//! `EXPERIMENTS.md` for each target's output recorded against the
//! paper's numbers. A failed gate prints the target, the cell and what
//! differed, and exits 1.

use griphon_bench::registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().map(String::as_str).unwrap_or("all");
    if target == "--list" || target == "-l" {
        println!("{}", registry::list());
        return;
    }
    match registry::find(target) {
        Some(t) => match (t.run)() {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        None => {
            eprintln!("unknown target {target:?}; targets:\n{}", registry::usage());
            eprintln!("(repro --list describes each)");
            std::process::exit(2);
        }
    }
}
