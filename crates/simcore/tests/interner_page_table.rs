//! Differential test of the page-table `LineInterner` against a plain
//! `HashMap` reference: same first-touch ids, the same `id_of` answers
//! (including for never-seen and unaligned addresses), `id_of` round
//! trips that cover `0..len()` once each, and the same `TooManyLines`
//! refusal that leaves known ids and `len()` untouched.

use proptest::prelude::*;
use simcore::{LineId, LineInterner, ValidateError};
use std::collections::HashMap;

/// The reference: one map entry per line, ids in first-touch order.
struct HashInterner {
    map: HashMap<u64, LineId>,
    lines: Vec<u64>,
    max_lines: usize,
}

impl HashInterner {
    fn new(max_lines: usize) -> Self {
        Self { map: HashMap::new(), lines: Vec::new(), max_lines }
    }

    fn try_intern(&mut self, line: u64) -> Option<LineId> {
        if let Some(&id) = self.map.get(&line) {
            return Some(id);
        }
        if self.lines.len() >= self.max_lines {
            return None;
        }
        let id = LineId(self.lines.len() as u32);
        self.map.insert(line, id);
        self.lines.push(line);
        Some(id)
    }
}

/// Line addresses from three shapes mixed in one stream: dense runs (many
/// lines per page), sparse one-line-per-page strides, and far-apart
/// regions whose page numbers differ only in high bits.
fn lines(line_size: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u8..3, 0u64..4096), 1..3000).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|(shape, k)| match shape {
                0 => k % 512 * line_size,
                1 => k * 64 * line_size + (k % 64) * line_size,
                _ => ((k % 8) << 40) | ((k % 97) * line_size),
            })
            .collect()
    })
}

fn check(line_size: u64, max_lines: u32, stream: &[u64]) -> Result<(), TestCaseError> {
    let mut it = LineInterner::with_max_lines(line_size, max_lines);
    let mut reference = HashInterner::new(max_lines as usize);
    for &line in stream {
        let want = reference.try_intern(line);
        match it.try_intern(line) {
            Ok(id) => prop_assert_eq!(Some(id), want, "line {:#x}", line),
            Err(ValidateError::TooManyLines { needed, limit }) => {
                prop_assert_eq!(want, None, "refused a line the reference interned");
                prop_assert_eq!(limit, u64::from(max_lines));
                prop_assert_eq!(needed, u64::from(max_lines) + 1);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
        prop_assert_eq!(it.len(), reference.lines.len());
    }
    // The interned lines and the ids `0..len()` are in bijection: the
    // reference's i-th line resolves to id i, so each id is hit once.
    prop_assert_eq!(it.len(), reference.lines.len());
    for (i, &line) in reference.lines.iter().enumerate() {
        prop_assert_eq!(it.id_of(line), Some(LineId(i as u32)));
    }
    for &line in stream {
        prop_assert_eq!(it.id_of(line), reference.map.get(&line).copied());
        // Unaligned addresses and the neighbouring lines of a page.
        prop_assert_eq!(it.id_of(line + 1), None);
        let next = line + line_size;
        prop_assert_eq!(it.id_of(next), reference.map.get(&next).copied());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 64 B lines (Machine A): ids, lookups and round trips agree.
    #[test]
    fn page_table_matches_hash_map_at_64b(stream in lines(64)) {
        check(64, LineInterner::DEFAULT_MAX_LINES, &stream)?;
    }

    /// 128 B lines (Machine B's ThunderX): a page spans 8 KiB.
    #[test]
    fn page_table_matches_hash_map_at_128b(stream in lines(128)) {
        check(128, LineInterner::DEFAULT_MAX_LINES, &stream)?;
    }

    /// A small id space: refusals leave known ids and `len()` as they were,
    /// whether the refused line's page is already mapped or not.
    #[test]
    fn refusals_leave_the_table_untouched(cap in 1u32..200, stream in lines(64)) {
        check(64, cap, &stream)?;
    }
}
