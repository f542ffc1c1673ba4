//! A hand-rolled, dependency-free XML parser.
//!
//! The paper parses DBLP and XMark with Xerces; no XML crate is on this
//! workspace's offline whitelist, so we implement the subset of XML 1.0
//! that those corpora (and our generators) actually use:
//!
//! * elements with attributes (single- or double-quoted),
//! * character data with the five predefined entities plus decimal and
//!   hexadecimal character references,
//! * CDATA sections,
//! * comments and processing instructions (skipped),
//! * an XML declaration and an (unparsed, brace-free) DOCTYPE (skipped),
//! * empty-element tags `<a/>`.
//!
//! Namespaces are treated literally (`dblp:title` is just a label), which
//! matches how the paper treats labels as opaque strings.
//!
//! The parser is a single-pass recursive-descent scanner over the input
//! bytes. Text nodes are attached to their parent element (the paper's
//! model folds text into the element; see `tree.rs`).

use crate::error::{ParseError, ParseErrorKind};
use crate::tree::{Attribute, NodeId, XmlTree};

/// Parses an XML document into an [`XmlTree`].
pub fn parse(input: &str) -> Result<XmlTree, ParseError> {
    Parser::new(input).parse_document()
}

/// Reads and parses an XML file.
///
/// I/O failures are surfaced separately from parse failures so callers
/// can distinguish a missing corpus from a malformed one.
pub fn parse_file(path: &std::path::Path) -> Result<XmlTree, ParseFileError> {
    let text = std::fs::read_to_string(path).map_err(ParseFileError::Io)?;
    parse(&text).map_err(ParseFileError::Parse)
}

/// Error of [`parse_file`].
#[derive(Debug)]
pub enum ParseFileError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The contents are not well-formed XML.
    Parse(ParseError),
}

impl std::fmt::Display for ParseFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFileError::Io(e) => write!(f, "cannot read file: {e}"),
            ParseFileError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseFileError {}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    // -- error helpers ------------------------------------------------

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        self.error_at(self.pos, kind)
    }

    fn error_at(&self, offset: usize, kind: ParseErrorKind) -> ParseError {
        let prefix = &self.input[..offset.min(self.input.len())];
        let line = prefix.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = prefix.rfind('\n').map_or(offset + 1, |nl| offset - nl);
        ParseError {
            kind,
            offset,
            line,
            column,
        }
    }

    // -- low-level scanning --------------------------------------------

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &'static str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            match self.input[self.pos..].chars().next() {
                Some(found) => {
                    Err(self.error(ParseErrorKind::UnexpectedChar { expected: s, found }))
                }
                None => Err(self.error(ParseErrorKind::UnexpectedEof(s))),
            }
        }
    }

    /// Skips until after the first occurrence of `delim`.
    fn skip_until(&mut self, delim: &str, what: &'static str) -> Result<(), ParseError> {
        match self.input[self.pos..].find(delim) {
            Some(i) => {
                self.bump(i + delim.len());
                Ok(())
            }
            None => Err(self.error(ParseErrorKind::UnexpectedEof(what))),
        }
    }

    // -- document structure ---------------------------------------------

    fn parse_document(mut self) -> Result<XmlTree, ParseError> {
        let mut tree = XmlTree::new();
        self.skip_prolog()?;
        if self.peek() != Some(b'<') {
            return Err(self.error(ParseErrorKind::NoRootElement));
        }
        self.parse_element(&mut tree, None)?;
        // Only misc (whitespace / comments / PIs) may follow the root.
        loop {
            self.skip_whitespace();
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.starts_with("<!--") {
                self.bump(4);
                self.skip_until("-->", "comment")?;
            } else if self.starts_with("<?") {
                self.bump(2);
                self.skip_until("?>", "processing instruction")?;
            } else {
                return Err(self.error(ParseErrorKind::TrailingContent));
            }
        }
        if tree.is_empty() {
            return Err(self.error(ParseErrorKind::NoRootElement));
        }
        Ok(tree)
    }

    /// Skips the XML declaration, DOCTYPE, comments, and PIs before the
    /// root element.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.bump(2);
                self.skip_until("?>", "xml declaration")?;
            } else if self.starts_with("<!--") {
                self.bump(4);
                self.skip_until("-->", "comment")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Internal subsets with [..] are rare in our corpora; we
                // support them by bracket counting.
                self.bump("<!DOCTYPE".len());
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        Some(b'[') => {
                            depth += 1;
                            self.pos += 1;
                        }
                        Some(b']') => {
                            depth = depth.saturating_sub(1);
                            self.pos += 1;
                        }
                        Some(b'>') if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        Some(_) => self.pos += 1,
                        None => return Err(self.error(ParseErrorKind::UnexpectedEof("DOCTYPE"))),
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    // -- elements -------------------------------------------------------

    /// Parses one element **and its whole subtree** iteratively (an
    /// explicit stack instead of recursion, so document depth is bounded
    /// by heap, not thread stack).
    fn parse_element(
        &mut self,
        tree: &mut XmlTree,
        parent: Option<NodeId>,
    ) -> Result<NodeId, ParseError> {
        // (node, name, accumulated text) per open element.
        let mut stack: Vec<(NodeId, String, String)> = Vec::new();
        let root = self.parse_open_tag(tree, parent, &mut stack)?;
        while !stack.is_empty() {
            if self.pos >= self.bytes.len() {
                return Err(self.error(ParseErrorKind::UnexpectedEof("element content")));
            }
            if self.starts_with("</") {
                self.bump(2);
                let close_start = self.pos;
                let close = self.parse_name()?;
                let (id, open_name, text) = stack.pop().expect("non-empty stack");
                if close != open_name {
                    return Err(self.error_at(
                        close_start,
                        ParseErrorKind::MismatchedCloseTag {
                            open: open_name,
                            close,
                        },
                    ));
                }
                self.skip_whitespace();
                self.expect(">")?;
                let trimmed = normalize_text(&text);
                if !trimmed.is_empty() {
                    tree.node_mut(id).text = Some(trimmed);
                }
            } else if self.starts_with("<!--") {
                self.bump(4);
                self.skip_until("-->", "comment")?;
            } else if self.starts_with("<![CDATA[") {
                self.bump("<![CDATA[".len());
                let start = self.pos;
                self.skip_until("]]>", "CDATA section")?;
                let literal = &self.input[start..self.pos - 3];
                stack
                    .last_mut()
                    .expect("non-empty stack")
                    .2
                    .push_str(literal);
            } else if self.starts_with("<?") {
                self.bump(2);
                self.skip_until("?>", "processing instruction")?;
            } else if self.peek() == Some(b'<') {
                let parent_id = stack.last().expect("non-empty stack").0;
                self.parse_open_tag(tree, Some(parent_id), &mut stack)?;
            } else {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let decoded = self.decode_entities(&self.input[start..self.pos], start)?;
                stack
                    .last_mut()
                    .expect("non-empty stack")
                    .2
                    .push_str(&decoded);
            }
        }
        Ok(root)
    }

    /// Parses `<name attrs…>` or `<name attrs…/>`, creating the node. The
    /// element is pushed on `stack` unless it was self-closing.
    fn parse_open_tag(
        &mut self,
        tree: &mut XmlTree,
        parent: Option<NodeId>,
        stack: &mut Vec<(NodeId, String, String)>,
    ) -> Result<NodeId, ParseError> {
        self.expect("<")?;
        let name_start = self.pos;
        let name = self.parse_name()?;
        let attributes = self.parse_attributes(&name, name_start)?;

        let label = tree.intern_label(&name);
        let id = tree.push_node(label, parent, None, attributes);

        self.skip_whitespace();
        if self.starts_with("/>") {
            self.bump(2);
            return Ok(id);
        }
        self.expect(">")?;
        stack.push((id, name, String::new()));
        Ok(id)
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            let snippet: String = self.input[start..].chars().take(8).collect();
            return Err(self.error_at(start, ParseErrorKind::BadName(snippet)));
        }
        let name = &self.input[start..self.pos];
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(self.error_at(start, ParseErrorKind::BadName(name.to_owned())));
        }
        Ok(name.to_owned())
    }

    fn parse_attributes(
        &mut self,
        _element: &str,
        _element_offset: usize,
    ) -> Result<Vec<Attribute>, ParseError> {
        let mut attrs: Vec<Attribute> = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(attrs),
                _ => {}
            }
            let name = self.parse_name()?;
            if attrs.iter().any(|a| a.name == name) {
                return Err(self.error(ParseErrorKind::DuplicateAttribute(name)));
            }
            self.skip_whitespace();
            self.expect("=")?;
            self.skip_whitespace();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                Some(_) => {
                    let found = self.input[self.pos..].chars().next().unwrap_or('\0');
                    return Err(self.error(ParseErrorKind::UnexpectedChar {
                        expected: "quote",
                        found,
                    }));
                }
                None => return Err(self.error(ParseErrorKind::UnexpectedEof("attribute value"))),
            };
            self.bump(1);
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == quote {
                    break;
                }
                self.pos += 1;
            }
            if self.peek() != Some(quote) {
                return Err(self.error(ParseErrorKind::UnexpectedEof("attribute value")));
            }
            let raw = &self.input[start..self.pos];
            self.bump(1);
            let value = self.decode_entities(raw, start)?;
            attrs.push(Attribute { name, value });
        }
    }

    // -- entities ---------------------------------------------------------

    fn decode_entities(&self, raw: &str, base_offset: usize) -> Result<String, ParseError> {
        if !raw.contains('&') {
            return Ok(raw.to_owned());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        let mut consumed = 0usize;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            let after = &rest[amp + 1..];
            let semi = after.find(';').ok_or_else(|| {
                self.error_at(
                    base_offset + consumed + amp,
                    ParseErrorKind::UnknownEntity(after.chars().take(10).collect()),
                )
            })?;
            let name = &after[..semi];
            let decoded = match name {
                "lt" => '<',
                "gt" => '>',
                "amp" => '&',
                "apos" => '\'',
                "quot" => '"',
                _ if name.starts_with('#') => {
                    let code = &name[1..];
                    let value = if let Some(hex) = code.strip_prefix(['x', 'X']) {
                        u32::from_str_radix(hex, 16)
                    } else {
                        code.parse::<u32>()
                    };
                    value.ok().and_then(char::from_u32).ok_or_else(|| {
                        self.error_at(
                            base_offset + consumed + amp,
                            ParseErrorKind::BadCharReference(code.to_owned()),
                        )
                    })?
                }
                _ => {
                    return Err(self.error_at(
                        base_offset + consumed + amp,
                        ParseErrorKind::UnknownEntity(name.to_owned()),
                    ))
                }
            };
            out.push(decoded);
            let step = amp + 1 + semi + 1;
            consumed += step;
            rest = &rest[step..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// Collapses runs of whitespace to single spaces and trims the ends —
/// the text normalization both corpora expect (indentation whitespace in
/// pretty-printed XML is not content).
fn normalize_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_space = true; // leading whitespace is dropped
    for c in text.chars() {
        if c.is_whitespace() {
            if !in_space {
                out.push(' ');
                in_space = true;
            }
        } else {
            out.push(c);
            in_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_document() {
        let t = parse("<a/>").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.label_name(t.root()), "a");
    }

    #[test]
    fn parses_nested_elements_with_text() {
        let t = parse("<pub><article><title>XML keyword search</title></article></pub>").unwrap();
        assert_eq!(t.len(), 3);
        let title = t.node_by_dewey(&"0.0.0".parse().unwrap()).unwrap();
        assert_eq!(t.label_name(title), "title");
        assert_eq!(t.node(title).text.as_deref(), Some("XML keyword search"));
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let t = parse(r#"<item id="x7" kind='auction'/>"#).unwrap();
        let attrs = &t.node(t.root()).attributes;
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].name, "id");
        assert_eq!(attrs[0].value, "x7");
        assert_eq!(attrs[1].value, "auction");
    }

    #[test]
    fn skips_prolog_comments_pis_doctype() {
        let src = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- generated -->
<!DOCTYPE dblp SYSTEM "dblp.dtd">
<?style sheet?>
<dblp><article/></dblp>
<!-- trailer -->"#;
        let t = parse(src).unwrap();
        assert_eq!(t.label_name(t.root()), "dblp");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn doctype_with_internal_subset() {
        let src = "<!DOCTYPE note [ <!ELEMENT note (#PCDATA)> ]><note>hi</note>";
        let t = parse(src).unwrap();
        assert_eq!(t.node(t.root()).text.as_deref(), Some("hi"));
    }

    #[test]
    fn decodes_predefined_entities_and_char_refs() {
        let t = parse("<a>f&amp;b &lt;x&gt; &#65;&#x42; &quot;q&quot; &apos;s&apos;</a>").unwrap();
        assert_eq!(
            t.node(t.root()).text.as_deref(),
            Some("f&b <x> AB \"q\" 's'")
        );
    }

    #[test]
    fn decodes_entities_in_attributes() {
        let t = parse(r#"<a title="R&amp;D &#x2014; lab"/>"#).unwrap();
        assert_eq!(t.node(t.root()).attributes[0].value, "R&D \u{2014} lab");
    }

    #[test]
    fn cdata_is_literal() {
        let t = parse("<a><![CDATA[<not> &a; tag]]></a>").unwrap();
        assert_eq!(t.node(t.root()).text.as_deref(), Some("<not> &a; tag"));
    }

    #[test]
    fn comments_inside_content_skipped() {
        let t = parse("<a>one <!-- skip <b> --> two</a>").unwrap();
        assert_eq!(t.node(t.root()).text.as_deref(), Some("one two"));
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let t = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(t.node(t.root()).text, None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn text_interleaved_with_children_concatenated() {
        let t = parse("<a>alpha<b/>beta<c/>gamma</a>").unwrap();
        assert_eq!(t.node(t.root()).text.as_deref(), Some("alphabetagamma"));
    }

    #[test]
    fn mismatched_close_tag_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::MismatchedCloseTag { .. }
        ));
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownEntity(ref n) if n == "nbsp"));
    }

    #[test]
    fn bad_char_reference_rejected() {
        let err = parse("<a>&#xZZ;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadCharReference(_)));
    }

    #[test]
    fn trailing_content_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn truncated_input_rejected() {
        for src in ["<a>", "<a", "<a attr=", "<a><b>text", "<!-- never closed"] {
            assert!(parse(src).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(ref n) if n == "x"));
    }

    #[test]
    fn error_positions_are_line_column() {
        let err = parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn namespaceish_names_accepted() {
        let t =
            parse("<dblp:article xmlns:dblp=\"urn:x\"><dblp:title>t</dblp:title></dblp:article>")
                .unwrap();
        assert_eq!(t.label_name(t.root()), "dblp:article");
    }

    #[test]
    fn deep_nesting_is_linear_not_recursive_blowup() {
        // 20k-deep documents parse fine only if recursion depth is managed;
        // parse_element recurses per depth so keep this moderate but real.
        let depth = 2_000;
        let mut src = String::new();
        for _ in 0..depth {
            src.push_str("<d>");
        }
        for _ in 0..depth {
            src.push_str("</d>");
        }
        let t = parse(&src).unwrap();
        assert_eq!(t.len(), depth);
    }
}

#[cfg(test)]
mod file_tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn parse_file_round_trip() {
        let dir = TempDir::new("xmltree-test");
        let path = dir.join("doc.xml");
        std::fs::write(&path, "<a><b>text</b></a>").unwrap();
        let tree = parse_file(&path).unwrap();
        assert_eq!(tree.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_file_distinguishes_io_from_parse_errors() {
        let missing = std::path::Path::new("/definitely/not/here.xml");
        assert!(matches!(parse_file(missing), Err(ParseFileError::Io(_))));

        let dir = TempDir::new("xmltree-test");
        let path = dir.join("bad.xml");
        std::fs::write(&path, "<a><b></a>").unwrap();
        assert!(matches!(parse_file(&path), Err(ParseFileError::Parse(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
