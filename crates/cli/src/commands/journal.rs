//! `bvc journal` — maintenance for sweep journals (`bvc-journal`):
//! `stat` summarizes a journal without rewriting it, `compact` rewrites it
//! keeping only the newest entry per fingerprint.

use std::path::PathBuf;

use bvc_journal::{compact_journal, journal_stats, json_escape};

use crate::args::{ArgError, Args};

/// Parsed configuration of one `bvc journal <verb>` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalCmd {
    /// `bvc journal stat`: line/entry/failure-reason summary.
    Stat {
        /// Journal path (`--path`).
        path: PathBuf,
        /// Emit machine-readable JSON instead of text (`--json`).
        json: bool,
    },
    /// `bvc journal compact`: drop superseded and unparseable lines.
    Compact {
        /// Journal path (`--path`).
        path: PathBuf,
        /// Output path (`--out`); defaults to `<path>.compact`, or the
        /// input itself with `--in-place` (atomic rename over the input).
        out: Option<PathBuf>,
        /// Replace the input atomically (`--in-place`).
        in_place: bool,
    },
}

/// Parses the subcommand's verb and flags.
pub fn parse(args: &Args) -> Result<JournalCmd, ArgError> {
    let verb = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("journal needs a verb: stat or compact".into()))?;
    let path = || -> Result<PathBuf, ArgError> { Ok(PathBuf::from(args.get::<String>("path")?)) };
    match verb.as_str() {
        "stat" => {
            args.check_names(&[&["path", "json"]])?;
            Ok(JournalCmd::Stat { path: path()?, json: args.has("json") })
        }
        "compact" => {
            args.check_names(&[&["path", "out", "in-place"]])?;
            let in_place = args.has("in-place");
            let out = if args.has("out") {
                if in_place {
                    return Err(ArgError("--out and --in-place are mutually exclusive".into()));
                }
                Some(PathBuf::from(args.get::<String>("out")?))
            } else {
                None
            };
            Ok(JournalCmd::Compact { path: path()?, out, in_place })
        }
        other => Err(ArgError(format!("unknown journal verb {other:?}; expected stat or compact"))),
    }
}

/// Runs the parsed subcommand.
pub fn run(cmd: &JournalCmd) -> Result<(), String> {
    match cmd {
        JournalCmd::Stat { path, json } => {
            let stats = journal_stats(path)
                .map_err(|e| format!("cannot stat journal {}: {e}", path.display()))?;
            if *json {
                let reasons: Vec<String> = stats
                    .reasons
                    .iter()
                    .map(|(r, n)| format!("{{\"reason\":\"{}\",\"count\":{n}}}", json_escape(r)))
                    .collect();
                println!(
                    "{{\"path\":\"{}\",\"lines\":{},\"unparseable\":{},\"superseded\":{},\
                     \"entries\":{},\"ok\":{},\"failed\":{},\"distinct_keys\":{},\
                     \"stale_keys\":{},\"reasons\":[{}]}}",
                    json_escape(&path.display().to_string()),
                    stats.lines,
                    stats.unparseable,
                    stats.superseded,
                    stats.entries,
                    stats.ok,
                    stats.failed,
                    stats.distinct_keys,
                    stats.stale_keys,
                    reasons.join(",")
                );
            } else {
                print!("{}", stats.render_text());
            }
            Ok(())
        }
        JournalCmd::Compact { path, out, in_place } => {
            let target = match (out, in_place) {
                (Some(out), _) => out.clone(),
                (None, true) => {
                    // Compact into a sibling temp file, then rename over the
                    // input so readers never see a half-written journal.
                    let tmp = path.with_extension("compact.tmp");
                    let outcome = compact_journal(path, &tmp)
                        .map_err(|e| format!("compaction failed: {e}"))?;
                    std::fs::rename(&tmp, path).map_err(|e| {
                        format!("cannot replace {} with compacted copy: {e}", path.display())
                    })?;
                    println!(
                        "compacted {} in place: {} lines -> {} kept ({} superseded, {} unparseable dropped)",
                        path.display(),
                        outcome.lines_in,
                        outcome.kept,
                        outcome.superseded,
                        outcome.unparseable
                    );
                    return Ok(());
                }
                (None, false) => path.with_extension("compact"),
            };
            let outcome =
                compact_journal(path, &target).map_err(|e| format!("compaction failed: {e}"))?;
            println!(
                "compacted {} -> {}: {} lines -> {} kept ({} superseded, {} unparseable dropped)",
                path.display(),
                target.display(),
                outcome.lines_in,
                outcome.kept,
                outcome.superseded,
                outcome.unparseable
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cmd(raw: &[&str]) -> Result<JournalCmd, ArgError> {
        parse(&Args::parse(raw.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn stat_and_compact_parse() {
        assert_eq!(
            parse_cmd(&["journal", "stat", "--path", "j.jsonl"]).unwrap(),
            JournalCmd::Stat { path: PathBuf::from("j.jsonl"), json: false }
        );
        assert_eq!(
            parse_cmd(&["journal", "stat", "--path", "j.jsonl", "--json"]).unwrap(),
            JournalCmd::Stat { path: PathBuf::from("j.jsonl"), json: true }
        );
        assert_eq!(
            parse_cmd(&["journal", "compact", "--path", "j.jsonl"]).unwrap(),
            JournalCmd::Compact { path: PathBuf::from("j.jsonl"), out: None, in_place: false }
        );
        assert_eq!(
            parse_cmd(&["journal", "compact", "--path", "j.jsonl", "--out", "k.jsonl"]).unwrap(),
            JournalCmd::Compact {
                path: PathBuf::from("j.jsonl"),
                out: Some(PathBuf::from("k.jsonl")),
                in_place: false
            }
        );
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for raw in [
            &["journal", "stat", "--path", "j.jsonl", "--jsn"][..],
            &["journal", "compact", "--path", "j.jsonl", "--inplace"],
        ] {
            let ArgError(message) = parse_cmd(raw).unwrap_err();
            assert!(message.starts_with("unknown parameter"), "{raw:?}: {message}");
        }
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_cmd(&["journal"]).is_err());
        assert!(parse_cmd(&["journal", "frobnicate"]).is_err());
        assert!(parse_cmd(&["journal", "stat"]).is_err());
        assert!(parse_cmd(&[
            "journal",
            "compact",
            "--path",
            "j.jsonl",
            "--out",
            "k.jsonl",
            "--in-place"
        ])
        .is_err());
    }

    #[test]
    fn stat_and_compact_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bvc-journal-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        // Two entries for the same cell (second supersedes) plus garbage.
        let entry = |ok: bool| bvc_journal::JournalEntry {
            fp: 7,
            key: "cell".into(),
            ok,
            attempts: 1,
            bits: vec![],
            reason: if ok { String::new() } else { "panic".into() },
        };
        let lines = format!(
            "{}\n{}\nnot json\n",
            bvc_journal::encode_line(&entry(false), &[]),
            bvc_journal::encode_line(&entry(true), &[1.5]),
        );
        std::fs::write(&path, lines).unwrap();

        run(&JournalCmd::Stat { path: path.clone(), json: true }).unwrap();
        run(&JournalCmd::Compact { path: path.clone(), out: None, in_place: false }).unwrap();
        let compacted = path.with_extension("compact");
        let body = std::fs::read_to_string(&compacted).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"status\":\"ok\""));

        run(&JournalCmd::Compact { path: path.clone(), out: None, in_place: true }).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
