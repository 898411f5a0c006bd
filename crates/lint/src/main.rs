//! `lkk-lint` CLI: scan the workspace, print a byte-stable report, and
//! gate via exit code.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error
//! (unknown argument, no workspace root, unreadable tree).

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: lkk-lint [--root DIR] [--list-rules]

  --root DIR     workspace root (default: walk up from cwd to the
                 first Cargo.toml containing [workspace])
  --list-rules   print the rule table and exit
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--list-rules" => {
                for r in lkk_lint::rules::Rule::ALL {
                    println!("{}  {}", r.id(), r.summary());
                    println!("        {}", r.hint());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lkk-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| lkk_lint::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("lkk-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match lkk_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lkk-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", lkk_lint::format_report(&report));
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
