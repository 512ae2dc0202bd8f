//! Per-function search-space statistics — the rows of Table 3.

/// One row of the paper's Table 3, built from a function's store record
/// with [`crate::campaign::store::FunctionRecord::to_row`].
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionRow {
    /// Function name (with its benchmark tag where applicable).
    pub name: String,
    /// Instructions in the unoptimized function (`Insts`).
    pub insts: usize,
    /// Basic blocks (`Blk`).
    pub blocks: usize,
    /// Conditional + unconditional transfers of control (`Brch`).
    pub branches: usize,
    /// Natural loops (`Loop`).
    pub loops: usize,
    /// Distinct function instances (`Fn inst`), `None` when the search was
    /// too big (the paper's `N/A`).
    pub fn_instances: Option<usize>,
    /// Optimization phases attempted (`Attempt Phases`).
    pub attempted_phases: Option<u64>,
    /// Largest active phase sequence length (`Len`).
    pub max_seq_len: Option<u32>,
    /// Distinct control flows (`CF`).
    pub control_flows: Option<usize>,
    /// Leaf function instances (`Leaf`).
    pub leaves: Option<usize>,
    /// Leaf code-size maximum (`Codesize Max.`).
    pub code_max: Option<u32>,
    /// Leaf code-size minimum (`Codesize Min.`).
    pub code_min: Option<u32>,
}

impl FunctionRow {
    /// Percentage code-size difference between the worst and best leaf
    /// (`% Diff` — "the maximum difference in code size that is possible
    /// due to different phase orderings").
    pub fn code_diff_percent(&self) -> Option<f64> {
        match (self.code_max, self.code_min) {
            (Some(max), Some(min)) if min > 0 => Some((max - min) as f64 * 100.0 / min as f64),
            _ => None,
        }
    }

    /// Formats the row roughly as in the paper's table (columns separated
    /// by whitespace; `N/A` for incomplete searches).
    pub fn render(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map(|x| x.to_string()).unwrap_or_else(|| "N/A".into())
        }
        format!(
            "{:<22} {:>6} {:>4} {:>4} {:>4} {:>9} {:>11} {:>4} {:>5} {:>6} {:>6} {:>6} {:>7}",
            self.name,
            self.insts,
            self.blocks,
            self.branches,
            self.loops,
            opt(&self.fn_instances),
            opt(&self.attempted_phases),
            opt(&self.max_seq_len),
            opt(&self.control_flows),
            opt(&self.leaves),
            opt(&self.code_max),
            opt(&self.code_min),
            self.code_diff_percent().map(|d| format!("{d:.1}")).unwrap_or_else(|| "N/A".into()),
        )
    }

    /// The table header matching [`FunctionRow::render`].
    pub fn header() -> String {
        format!(
            "{:<22} {:>6} {:>4} {:>4} {:>4} {:>9} {:>11} {:>4} {:>5} {:>6} {:>6} {:>6} {:>7}",
            "Function",
            "Insts",
            "Blk",
            "Brch",
            "Loop",
            "FnInst",
            "AttemptPh",
            "Len",
            "CF",
            "Leaf",
            "Max",
            "Min",
            "%Diff"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::store::FunctionRecord;
    use crate::enumerate::{enumerate, Config};
    use vpo_opt::Target;

    #[test]
    fn row_from_small_function() {
        let p = vpo_frontend::compile(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i; return s; }",
        )
        .unwrap();
        let f = &p.functions[0];
        let e = enumerate(f, &Target::default(), &Config::default());
        let row = FunctionRecord::from_enumeration("f(t)", f, &e).to_row();
        assert_eq!(row.loops, 1);
        assert!(row.fn_instances.unwrap() > 5);
        assert!(row.attempted_phases.unwrap() > row.fn_instances.unwrap() as u64);
        assert!(row.code_max.unwrap() >= row.code_min.unwrap());
        assert!(row.code_diff_percent().unwrap() >= 0.0);
        let line = row.render();
        assert!(line.contains("f(t)"));
        assert!(!line.contains("N/A"));
        assert_eq!(
            FunctionRow::header().split_whitespace().count(),
            line.split_whitespace().count()
        );
    }

    #[test]
    fn incomplete_searches_render_na() {
        let p = vpo_frontend::compile(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i++) s += i * i; return s; }",
        )
        .unwrap();
        let f = &p.functions[0];
        let e =
            enumerate(f, &Target::default(), &Config { max_level_width: 1, ..Config::default() });
        let row = FunctionRecord::from_enumeration("f(t)", f, &e).to_row();
        assert_eq!(row.fn_instances, None);
        assert!(row.render().contains("N/A"));
    }
}
