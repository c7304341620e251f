//! K-way merge of sorted entry sources with newest-wins shadowing, for
//! compaction. (Reads merge lazily through [`crate::MergeStream`].)

use crate::block::BlockEntry;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Merges sorted sources (index 0 = newest) keeping the newest version of
/// each key, *including* tombstones (compaction must retain them when
/// older files still exist — or drop them on a full compaction).
pub fn merge_versions(sources: Vec<Vec<BlockEntry>>) -> Vec<BlockEntry> {
    struct HeapItem {
        key: Vec<u8>,
        source: usize,
        pos: usize,
    }
    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.source == other.source
        }
    }
    impl Eq for HeapItem {}
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for min-heap on (key, source): the smallest key wins,
            // ties broken by newest (lowest) source index.
            other
                .key
                .cmp(&self.key)
                .then(other.source.cmp(&self.source))
        }
    }
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = BinaryHeap::new();
    for (i, src) in sources.iter().enumerate() {
        if let Some(first) = src.first() {
            heap.push(HeapItem {
                key: first.key.clone(),
                source: i,
                pos: 0,
            });
        }
    }
    let mut out: Vec<BlockEntry> = Vec::new();
    while let Some(item) = heap.pop() {
        let entry = sources[item.source][item.pos].clone();
        match out.last() {
            Some(last) if last.key == entry.key => {
                // An earlier pop (newer source) already produced this key.
            }
            _ => out.push(entry),
        }
        let next = item.pos + 1;
        if next < sources[item.source].len() {
            heap.push(HeapItem {
                key: sources[item.source][next].key.clone(),
                source: item.source,
                pos: next,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(key: &str, value: Option<&str>) -> BlockEntry {
        BlockEntry {
            key: key.as_bytes().to_vec(),
            value: value.map(|v| v.as_bytes().to_vec()),
        }
    }

    #[test]
    fn tombstones_kept_by_merge_versions() {
        let newest = vec![e("a", None)];
        let oldest = vec![e("a", Some("old"))];
        let merged = merge_versions(vec![newest, oldest]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value, None);
    }
}
