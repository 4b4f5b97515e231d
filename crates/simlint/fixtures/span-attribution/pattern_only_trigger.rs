// Fixture: triggers `span-attribution` once. `Ghost` is named by the
// exhaustive match, but a pattern is not a construction: nothing ever
// records a `SpanKind::Ghost`, so no request can carry it.

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

pub fn first() -> SpanKind {
    SpanKind::Issued
}
