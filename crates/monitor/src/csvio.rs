//! CSV persistence for data histories.
//!
//! A week-long monitoring campaign (the paper's §IV) is expensive to
//! collect; this is the raw-history format it is archived in —
//! `f2pm campaign`/`f2pm monitor` write it, a recording serve instance
//! (`f2pm serve --record DIR`) appends each host's closed runs to it, and
//! the training pipeline reloads it later. It is also portable to
//! external tooling (gnuplot, pandas) for inspection.
//!
//! Format: one row per event. Datapoint rows are
//! `D,<t_gen>,<v0>,...,<v13>` (values in [`crate::FEATURES`] order); fail
//! events are `F,<t>`. A header line names the columns. Floats are written
//! in their shortest round-trip form, so a reload is bit-identical.

use crate::datapoint::{Datapoint, FEATURES};
use crate::history::{DataHistory, HistoryEvent};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write a history to CSV.
///
/// ```no_run
/// use f2pm_monitor::{save_csv, load_csv, DataHistory};
///
/// let mut history = DataHistory::new();
/// // ... push datapoints / fail events ...
/// save_csv(&history, "campaign.csv").unwrap();
/// let restored = load_csv("campaign.csv").unwrap();
/// assert_eq!(restored.datapoint_count(), history.datapoint_count());
/// ```
pub fn save_csv(history: &DataHistory, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w)?;
    for ev in history.events() {
        write_row(&mut w, ev)?;
    }
    w.flush()
}

/// Write the header line that starts every history CSV.
pub fn write_header(w: &mut impl Write) -> io::Result<()> {
    write!(w, "kind,t")?;
    for f in FEATURES {
        write!(w, ",{}", f.name())?;
    }
    writeln!(w)
}

/// Write one event as one CSV row (the row writer of [`save_csv`]).
pub fn write_row(w: &mut impl Write, ev: &HistoryEvent) -> io::Result<()> {
    match ev {
        HistoryEvent::Datapoint(d) => {
            write!(w, "D,{}", d.t_gen)?;
            for v in d.values {
                write!(w, ",{v}")?;
            }
            writeln!(w)
        }
        HistoryEvent::Fail { t } => writeln!(w, "F,{t}"),
    }
}

/// Read a history back from CSV (as written by [`save_csv`]).
pub fn load_csv(path: impl AsRef<Path>) -> io::Result<DataHistory> {
    let r = BufReader::new(File::open(path)?);
    let mut history = DataHistory::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.is_empty() {
            continue; // header
        }
        let mut fields = line.split(',');
        let kind = fields.next().unwrap_or("");
        let parse = |s: Option<&str>| -> io::Result<f64> {
            s.ok_or_else(|| bad(lineno, "missing field"))?
                .parse()
                .map_err(|_| bad(lineno, "bad float"))
        };
        match kind {
            "D" => {
                let t_gen = parse(fields.next())?;
                let mut values = [0.0; 14];
                for v in &mut values {
                    *v = parse(fields.next())?;
                }
                history.push_datapoint(Datapoint { t_gen, values });
            }
            "F" => {
                let t = parse(fields.next())?;
                history.push_fail(t);
            }
            other => return Err(bad(lineno, &format!("unknown row kind {other:?}"))),
        }
    }
    Ok(history)
}

fn bad(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("csv line {}: {msg}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapoint::FeatureId;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("f2pm_csv_{}_{name}", std::process::id()))
    }

    fn sample_history() -> DataHistory {
        let mut h = DataHistory::new();
        for i in 0..5 {
            let mut d = Datapoint {
                t_gen: i as f64 * 1.5,
                values: [0.0; 14],
            };
            d.set(FeatureId::SwapUsed, i as f64 * 100.5);
            d.set(FeatureId::CpuIdle, 99.25 - i as f64);
            h.push_datapoint(d);
        }
        h.push_fail(10.75);
        let mut d = Datapoint {
            t_gen: 0.5,
            values: [1.0; 14],
        };
        d.set(FeatureId::MemFree, 123456.789);
        h.push_datapoint(d);
        h
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let path = temp("roundtrip.csv");
        let h = sample_history();
        save_csv(&h, &path).unwrap();
        let got = load_csv(&path).unwrap();
        assert_eq!(got.events().len(), h.events().len());
        for (a, b) in h.events().iter().zip(got.events()) {
            assert_eq!(a, b, "event mismatch");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn runs_survive_roundtrip() {
        let path = temp("runs.csv");
        let h = sample_history();
        save_csv(&h, &path).unwrap();
        let got = load_csv(&path).unwrap();
        let runs = got.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].fail_time, Some(10.75));
        assert_eq!(runs[1].fail_time, None);
        assert_eq!(runs[0].datapoints.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_names_match_features() {
        let path = temp("header.csv");
        save_csv(&DataHistory::new(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.starts_with("kind,t,"));
        assert!(header.contains("swap_used"));
        assert!(header.contains("cpu_steal"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_rows_rejected() {
        let path = temp("bad.csv");
        std::fs::write(&path, "kind,t\nX,1.0\n").unwrap();
        assert!(load_csv(&path).is_err());
        std::fs::write(&path, "kind,t\nD,1.0,2.0\n").unwrap(); // too few values
        assert!(load_csv(&path).is_err());
        std::fs::write(&path, "kind,t\nF,notafloat\n").unwrap();
        assert!(load_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(load_csv("/nonexistent_f2pm/x.csv").is_err());
    }
}
