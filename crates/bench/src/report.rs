//! Writes the `results/` directory: each figure's markdown and one CSV
//! per [`Table`] (the table type and its renderers are
//! [`plb_runtime::table`]'s).

use plb_runtime::Table;
use std::fs;
use std::path::Path;

/// Write a figure's markdown (and CSVs for each table) under `dir`.
pub fn write_results(
    dir: &Path,
    name: &str,
    markdown: &str,
    tables: &[Table],
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.md")), markdown)?;
    for (i, t) in tables.iter().enumerate() {
        let suffix = if tables.len() == 1 {
            String::new()
        } else {
            format!("_{i}")
        };
        fs::write(dir.join(format!("{name}{suffix}.csv")), t.to_csv())?;
    }
    Ok(())
}

/// Format seconds compactly (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5 µs");
    }
}
