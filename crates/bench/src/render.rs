//! One table renderer. Each report row type states its columns once,
//! and both its text table and its JSON snapshot are written from that
//! one list, so the two outputs cannot drift apart.

use obs::json::quote;

/// One cell, as a column reads it from a row.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// A count: the same digits in both outputs.
    Count(u64),
    /// A flag: `1`/`0` in JSON, so a gate diffs it as a number, and
    /// `yes`/`NO` in text.
    Flag(bool),
    /// A string: quoted in JSON, bare in text.
    Str(&'static str),
}

impl Cell {
    fn json(self) -> String {
        match self {
            Cell::Count(n) => n.to_string(),
            Cell::Flag(b) => u8::from(b).to_string(),
            Cell::Str(s) => quote(s),
        }
    }

    fn text(self) -> String {
        match self {
            Cell::Count(n) => n.to_string(),
            Cell::Flag(b) => (if b { "yes" } else { "NO" }).to_string(),
            Cell::Str(s) => s.to_string(),
        }
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Count(n as u64)
    }
}

impl From<u32> for Cell {
    fn from(n: u32) -> Self {
        Cell::Count(n.into())
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Count(n)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Self {
        Cell::Flag(b)
    }
}

impl From<&'static str> for Cell {
    fn from(s: &'static str) -> Self {
        Cell::Str(s)
    }
}

/// One column of a row type: its JSON key, its text header and width,
/// and how to read its cell from a row. A column may belong to only one
/// of the two outputs.
pub struct Column<R> {
    key: Option<&'static str>,
    header: Option<(&'static str, usize)>,
    get: fn(&R) -> Cell,
}

impl<R> Column<R> {
    /// A column written to both the JSON (as `key`) and the text table
    /// (as `header`, `width` characters wide).
    pub const fn both(
        key: &'static str,
        header: &'static str,
        width: usize,
        get: fn(&R) -> Cell,
    ) -> Self {
        Column {
            key: Some(key),
            header: Some((header, width)),
            get,
        }
    }

    /// A column written only to the JSON.
    pub const fn json(key: &'static str, get: fn(&R) -> Cell) -> Self {
        Column {
            key: Some(key),
            header: None,
            get,
        }
    }

    /// A column written only to the text table.
    pub const fn text(header: &'static str, width: usize, get: fn(&R) -> Cell) -> Self {
        Column {
            key: None,
            header: Some((header, width)),
            get,
        }
    }
}

/// A report row type and its column list. The first text column is the
/// row's label and is left-aligned; every other text column is
/// right-aligned to its width.
pub trait Columns: Sized + 'static {
    /// Every column, in output order for both the JSON and the text.
    const COLUMNS: &'static [Column<Self>];
}

/// Wraps rendered rows in the `{"benchmarks": [...]}` envelope every
/// report document shares. Each row arrives indented by its renderer;
/// every row but the last is followed by a comma.
pub(crate) fn envelope(rows: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = rows.into_iter().collect();
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    if !rows.is_empty() {
        s.push_str(&rows.join(",\n"));
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// The rows as a JSON snapshot, one row object per line.
pub fn json<R: Columns>(rows: &[R]) -> String {
    envelope(rows.iter().map(|row| {
        let fields: Vec<String> = R::COLUMNS
            .iter()
            .filter_map(|c| Some(format!("{}: {}", quote(c.key?), (c.get)(row).json())))
            .collect();
        format!("    {{{}}}", fields.join(", "))
    }))
}

/// The rows as a text table: the header line, then one line per row.
pub(crate) fn text<R: Columns>(rows: &[R]) -> String {
    let columns: Vec<_> = R::COLUMNS
        .iter()
        .filter_map(|c| c.header.map(|(header, width)| (header, width, c.get)))
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, (cell, (_, width, _))) in cells.iter().zip(&columns).enumerate() {
            if i == 0 {
                s.push_str(&format!("{cell:<width$}"));
            } else {
                s.push_str(&format!("{cell:>width$}"));
            }
        }
        s.push('\n');
        s
    };
    let mut s = line(columns.iter().map(|(h, _, _)| h.to_string()).collect());
    for row in rows {
        s.push_str(&line(
            columns.iter().map(|(_, _, get)| get(row).text()).collect(),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pin {
        name: &'static str,
        total: usize,
        gone: u32,
        ok: bool,
    }

    impl Columns for Pin {
        const COLUMNS: &'static [Column<Self>] = &[
            Column::both("name", "Benchmark", 10, |r| r.name.into()),
            Column::both("total", "total", 6, |r| r.total.into()),
            Column::json("gone", |r| r.gone.into()),
            Column::text("kept", 5, |r| (r.total - r.gone as usize).into()),
            Column::both("ok", "ok", 4, |r| r.ok.into()),
        ];
    }

    #[test]
    fn both_outputs_come_from_the_one_column_list() {
        let rows = [
            Pin {
                name: "a\"b",
                total: 5,
                gone: 2,
                ok: true,
            },
            Pin {
                name: "c",
                total: 3,
                gone: 3,
                ok: false,
            },
        ];
        assert_eq!(
            json(&rows),
            "{\n  \"benchmarks\": [\n\
             \x20   {\"name\": \"a\\\"b\", \"total\": 5, \"gone\": 2, \"ok\": 1},\n\
             \x20   {\"name\": \"c\", \"total\": 3, \"gone\": 3, \"ok\": 0}\n\
             \x20 ]\n}\n"
        );
        assert_eq!(
            text(&rows),
            "Benchmark  total kept  ok\n\
             a\"b            5    3 yes\n\
             c              3    0  NO\n"
        );
        assert_eq!(json::<Pin>(&[]), "{\n  \"benchmarks\": [\n  ]\n}\n");
        assert_eq!(text::<Pin>(&[]), "Benchmark  total kept  ok\n");
    }
}
