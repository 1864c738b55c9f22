//! Source locations, spans and the source map.

use std::collections::HashMap;
use std::fmt;

/// Identifies a source file registered in a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId(pub u32);

/// A half-open byte range `[lo, hi)` within a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    pub file: FileId,
    pub lo: u32,
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `[lo, hi)` in `file`.
    pub fn new(file: FileId, lo: u32, hi: u32) -> Span {
        Span { file, lo, hi }
    }

    /// A zero-width placeholder span (used for synthesised nodes).
    pub fn dummy() -> Span {
        Span::default()
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// Both spans must refer to the same file; if they do not, `self`'s file
    /// wins (this only happens for synthesised nodes).
    pub fn to(self, other: Span) -> Span {
        Span {
            file: self.file,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// A registered source file: name plus full text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub name: String,
    pub text: String,
    /// Byte offsets of the start of each line.
    line_starts: Vec<u32>,
    /// Hash of `text`, computed once at registration. A span's
    /// `(content_hash, lo, hi)` triple identifies the exact source text of
    /// a definition, independent of which process parsed it — the
    /// multi-tenant shared derivation tier keys method bodies by it.
    content_hash: u64,
}

impl SourceFile {
    fn new(name: String, text: String, content_hash: u64) -> SourceFile {
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceFile {
            name,
            text,
            line_starts,
            content_hash,
        }
    }

    /// Hash of the file's full text (see the field docs).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        (line as u32 + 1, offset - self.line_starts[line] + 1)
    }

    /// The 1-based line number of a byte offset.
    pub fn line(&self, offset: u32) -> u32 {
        self.line_col(offset).0
    }
}

/// Registry of all source files seen by the front-end, used to render
/// human-readable positions in diagnostics.
#[derive(Debug, Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
    /// Content hash → files with that hash, for [`SourceMap::add_file`]'s
    /// dedup.
    by_hash: HashMap<u64, Vec<FileId>>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Registers a file and returns its id. Registering a byte-identical
    /// `(name, text)` pair again returns the existing id, so a system
    /// that evaluates the same snippet on every request keeps one file
    /// for it (and its spans, and its parsed program, stay the same).
    pub fn add_file(&mut self, name: &str, text: &str) -> FileId {
        let content_hash = hb_intern::fingerprint64(text);
        let files = &self.files;
        let same = self.by_hash.entry(content_hash).or_default();
        if let Some(&id) = same.iter().find(|id| {
            let f = &files[id.0 as usize];
            f.name == name && f.text == text
        }) {
            return id;
        }
        let id = FileId(files.len() as u32);
        same.push(id);
        self.files
            .push(SourceFile::new(name.into(), text.into(), content_hash));
        id
    }

    /// Looks up a registered file.
    pub fn file(&self, id: FileId) -> Option<&SourceFile> {
        self.files.get(id.0 as usize)
    }

    /// Iterates every registered file with its id, in registration order.
    /// Whole-program tools (the `hb-analyze` root collector) fetch each
    /// file's program through this and [`crate::parse_file`].
    pub fn files(&self) -> impl Iterator<Item = (FileId, &SourceFile)> {
        self.files
            .iter()
            .enumerate()
            .map(|(i, f)| (FileId(i as u32), f))
    }

    /// Renders `span` as `name:line:col` if the file is known.
    pub fn describe(&self, span: Span) -> String {
        match self.file(span.file) {
            Some(f) => {
                let (l, c) = f.line_col(span.lo);
                format!("{}:{}:{}", f.name, l, c)
            }
            None => "<unknown>".to_string(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_takes_extremes() {
        let a = Span::new(FileId(0), 4, 9);
        let b = Span::new(FileId(0), 2, 6);
        let j = a.to(b);
        assert_eq!((j.lo, j.hi), (2, 9));
    }

    #[test]
    fn line_col_lookup() {
        let f = SourceFile::new("t.rb".into(), "ab\ncd\nef".into(), 0);
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(1), (1, 2));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(7), (3, 2));
    }

    #[test]
    fn line_col_at_newline_boundary() {
        let f = SourceFile::new("t.rb".into(), "ab\ncd".into(), 0);
        // The newline itself belongs to line 1.
        assert_eq!(f.line_col(2), (1, 3));
    }

    #[test]
    fn source_map_describe() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("app.rb", "x = 1\ny = 2\n");
        let sp = Span::new(id, 6, 7);
        assert_eq!(sm.describe(sp), "app.rb:2:1");
    }

    #[test]
    fn identical_registration_reuses_the_file() {
        let mut sm = SourceMap::new();
        let a = sm.add_file("<eval>", "x = 1");
        assert_eq!(sm.add_file("<eval>", "x = 1"), a);
        // Same text under another name, or another text under the same
        // name, is a new file.
        assert_ne!(sm.add_file("app.rb", "x = 1"), a);
        assert_ne!(sm.add_file("<eval>", "x = 2"), a);
        assert_eq!(sm.files().count(), 3);
    }

    #[test]
    fn describe_unknown_file() {
        let sm = SourceMap::new();
        assert_eq!(sm.describe(Span::dummy()), "<unknown>");
    }
}
