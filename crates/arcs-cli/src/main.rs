//! `arcs` — command-line interface to the ARCS reproduction.
//!
//! ```sh
//! arcs generate --out data.csv --n 50000
//! arcs segment data.csv --criterion group --group A --grid
//! arcs explore data.csv --x age --y salary --criterion group --group A
//! arcs rank data.csv --criterion group
//! arcs serve data.csv --criterion group --group A --deadline-ms 250
//! arcs daemon --listen 127.0.0.1:7878 --datasets d=data.csv \
//!     --x age --y salary --criterion group
//! arcs client --addr 127.0.0.1:7878 query --dataset d --group A \
//!     --support 0.02 --confidence 0.5
//! ```

mod args;
mod commands;
mod daemon_cmd;
mod signals;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch_with_status(&argv) {
        // `status` is 0 for a clean run, 5 when the run completed but the
        // memory budget forced a coarser grid than requested.
        Ok((output, status)) => {
            println!("{output}");
            ExitCode::from(status)
        }
        Err(err) => {
            eprintln!("{err}");
            // Distinct exit codes per error class: 2 usage, 3 data,
            // 4 internal, 6 deadline/overload. Scripts can branch on them.
            ExitCode::from(err.exit_code())
        }
    }
}
