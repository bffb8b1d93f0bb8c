//! Restart cost: reopening an archive in a freshly started process.
//!
//! `recover_s` is what a restarted SpotLake pays to get its archive back,
//! so each sample is one open in a new child process (`perfbench
//! open-child`) whose heap holds nothing but the open itself. The
//! benchmark's own heap, grown and fragmented by fixture generation and
//! the timed phase, stays out of the figure.

use spotlake_timestream::{Database, ShardedArchive};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// First argument that turns the binary into the open child.
pub const CHILD_COMMAND: &str = "open-child";

/// What kind of archive to reopen.
#[derive(Debug, Clone, Copy)]
pub enum Archive {
    /// A sharded durable archive root, opened with `ShardedArchive::open`.
    Sharded {
        /// Checkpoint cadence the archive was written with, in rounds.
        checkpoint_every: u64,
    },
    /// A saved database file, opened with `Database::load`.
    File,
}

/// One reopen, as the child measured it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reopen {
    /// Seconds the open took.
    pub secs: f64,
    /// Points in the reopened database.
    pub points: usize,
    /// Healthy shards (1 of 1 for a database file).
    pub healthy: usize,
    /// All shards (1 for a database file).
    pub total: usize,
}

/// Reopens `path` once in a new child process and waits for it to end.
pub fn reopen(archive: Archive, path: &Path) -> Result<Reopen, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD_COMMAND);
    match archive {
        Archive::Sharded { checkpoint_every } => {
            cmd.arg("sharded").arg(checkpoint_every.to_string())
        }
        Archive::File => cmd.arg("file").arg("0"),
    };
    let out = cmd
        .arg(path)
        .output()
        .map_err(|e| format!("cannot run the open child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "open child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = String::from_utf8_lossy(&out.stdout);
    parse_reply(line.trim()).ok_or_else(|| format!("bad open child reply {line:?}"))
}

fn parse_reply(line: &str) -> Option<Reopen> {
    let mut words = line.split_whitespace();
    if words.next() != Some("opened") {
        return None;
    }
    let secs = words.next()?.parse().ok()?;
    let points = words.next()?.parse().ok()?;
    let healthy = words.next()?.parse().ok()?;
    let total = words.next()?.parse().ok()?;
    words.next().is_none().then_some(Reopen {
        secs,
        points,
        healthy,
        total,
    })
}

/// Entry point of the open child: `open-child <sharded|file> <checkpoint
/// every> <path>`. Prints `opened <secs> <points> <healthy> <total>`.
pub fn child_main(args: &[String]) -> ExitCode {
    match child(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {CHILD_COMMAND}: {e}");
            ExitCode::from(1)
        }
    }
}

fn child(args: &[String]) -> Result<String, String> {
    let [kind, every, path] = args else {
        return Err("expects <sharded|file> <checkpoint every> <path>".into());
    };
    let every: u64 = every
        .parse()
        .map_err(|_| format!("bad checkpoint cadence {every:?}"))?;
    let t0 = Instant::now();
    let (secs, points, healthy, total) = match kind.as_str() {
        "sharded" => {
            let (archive, db) = ShardedArchive::open(Path::new(path), &[], every, None)
                .map_err(|e| e.to_string())?;
            let secs = t0.elapsed().as_secs_f64();
            let health = archive.health();
            (secs, db.point_count(), health.healthy(), health.total())
        }
        "file" => {
            let db = Database::load(path).map_err(|e| e.to_string())?;
            (t0.elapsed().as_secs_f64(), db.point_count(), 1, 1)
        }
        other => return Err(format!("unknown archive kind {other:?}")),
    };
    Ok(format!("opened {secs} {points} {healthy} {total}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_child_reply() {
        assert_eq!(
            parse_reply("opened 0.25 1200 51 51"),
            Some(Reopen {
                secs: 0.25,
                points: 1200,
                healthy: 51,
                total: 51
            })
        );
        assert_eq!(parse_reply("opened 0.25 1200 51"), None);
        assert_eq!(parse_reply("opened 0.25 1200 51 51 9"), None);
        assert_eq!(parse_reply("failed"), None);
    }
}
