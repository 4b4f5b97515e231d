// Fixture: clean under `span-attribution` — every declared variant is
// constructed somewhere in the attribution code.

pub enum SpanKind {
    Issued,
    Ghost,
}

pub fn label(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::Issued => "issued",
        SpanKind::Ghost => "ghost",
    }
}

pub fn all() -> [SpanKind; 2] {
    [SpanKind::Issued, SpanKind::Ghost]
}
