"""URL canonicalization / resolution / domain extraction / include filtering.

Pure Python (no Ray): these are the byte-identity primitives everything else
in the engine depends on. Semantics re-derived from the reference crawler
(jahaynes/crawler):

- canonicalise:    /root/reference/src/Urls.hs:33-47 (parse absolute URI,
                   normalize case/escape/path-segments, strip default ports
                   per scheme, drop ``#fragment``).
- derelativise:    /root/reference/src/Urls.hs:72-98 (sanitize: drop
                   fragments, ``%20``-encode spaces; reject ``mailto:``;
                   absolute -> canonicalise; relative -> RFC 3986 join with
                   the base URL then normalize).
- get_domain:      /root/reference/src/Urls.hs:100-103 (bytes after ``//`` up
                   to the next ``/``).
- include filter:  /root/reference/src/Crawl.hs:214-228 (accept iff ANY url
                   pattern is an infix of the URL OR any domain pattern is an
                   infix of its domain).

The normalization set (documented canonical semantics for this engine):
scheme and host lowercased, percent-escape hex uppercased, unreserved
percent-escapes decoded, dot-segments removed, default ports stripped
(``:80`` for http, ``:443`` for https), fragments dropped.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from urllib.parse import urljoin, urlsplit, urlunsplit

_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_PCT_RE = re.compile(r"%([0-9a-fA-F]{2})")


def _normalize_escapes(s: str) -> str:
    """Uppercase %XX hex; decode escapes of unreserved characters."""

    def repl(m: re.Match) -> str:
        ch = chr(int(m.group(1), 16))
        if ch in _UNRESERVED:
            return ch
        return "%" + m.group(1).upper()

    return _PCT_RE.sub(repl, s)


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 remove_dot_segments."""
    out: list[str] = []
    inp = path
    while inp:
        if inp.startswith("../"):
            inp = inp[3:]
        elif inp.startswith("./"):
            inp = inp[2:]
        elif inp.startswith("/./"):
            inp = "/" + inp[3:]
        elif inp == "/.":
            inp = "/"
        elif inp.startswith("/../"):
            inp = "/" + inp[4:]
            if out:
                out.pop()
        elif inp == "/..":
            inp = "/"
            if out:
                out.pop()
        elif inp in (".", ".."):
            inp = ""
        else:
            if inp.startswith("/"):
                i = inp.find("/", 1)
            else:
                i = inp.find("/")
            if i == -1:
                out.append(inp)
                inp = ""
            else:
                out.append(inp[:i])
                inp = inp[i:]
    return "".join(out)


def _strip_default_port(scheme: str, netloc: str) -> str:
    """Strip ``:80`` for http and ``:443`` for https (Urls.hs:25-31)."""
    if scheme == "http" and netloc.endswith(":80"):
        return netloc[:-3]
    if scheme == "https" and netloc.endswith(":443"):
        return netloc[:-4]
    return netloc


# conservative already-canonical detector (fast path): lowercase http(s)
# scheme, lowercase host WITHOUT a port, a path/query with no percent
# escapes, no dots (so dot-segment removal is identity), no fragment.
# Anything it matches is a fixed point of the full normalization below —
# it may only ever say "no" to a canonical URL, never "yes" to a
# non-canonical one (property-tested against the full path in
# tests/test_urlkit.py).
_ALREADY_CANONICAL = re.compile(
    r"^https?://[a-z0-9\-]+(?:\.[a-z0-9\-]+)*"
    r"(/[A-Za-z0-9_\-/]*)?(\?[A-Za-z0-9_\-=&]+)?$"
)


def canonicalise(url: str, discard_fragments: bool = True) -> str | None:
    """Canonicalise an absolute URL string; None if not an absolute URI.

    Mirrors ``canonicaliseString`` (Urls.hs:36-47): fragment discard before
    parse, absolute-URI requirement, then normalize.
    """
    if url is None:
        return None
    url = url.strip()
    if _ALREADY_CANONICAL.match(url):
        # hot path: the overwhelming majority of crawl-discovered URLs are
        # already canonical (measured ~30% of per-URL fetch CPU went to
        # re-normalizing them); the full path below is the reference
        # semantics and handles everything the detector declines
        return url
    if discard_fragments:
        h = url.find("#")
        if h != -1:
            url = url[:h]
    # Second-chance fast path: apply the cheap single-step normalizations
    # (each is literally one step of the full algorithm below — lowercase
    # scheme+authority, strip default port, collapse ``/./`` segments) and
    # re-test the conservative detector. The detector only matches strings
    # that are fixed points of the full normalization, so a hit here is
    # exactly what the slow path would return; a miss falls through to the
    # untouched original semantics. At crawl bench scale ~half of
    # discovered hrefs differ from canonical by only one of these steps.
    a = url.find("://")
    if 0 < a < 8:
        # authority ends at the first '/' OR '?' (fragments are already
        # stripped) — a query directly after the host must keep its case
        end = url.find("/", a + 3)
        q = url.find("?", a + 3)
        if q != -1 and (end == -1 or q < end):
            end = q
        pre = url if end == -1 else url[:end]
        if not pre.islower():
            low = pre.lower()
            url2 = low if end == -1 else low + url[end:]
        else:
            url2 = url
        if url2.startswith("http://") and url2.find(":80/", a + 3, end + 4 if end != -1 else len(url2) + 1) != -1:
            url2 = url2.replace(":80/", "/", 1)
            if end != -1:
                end -= 3  # authority shrank by ':80'
        # collapse ``/./`` in the PATH only — never across the authority.
        # (regression: ``http://./0`` must keep its dot host; collapsing the
        # whole string ate the ``.`` and produced ``http://0``)
        if end != -1 and end < len(url2) and url2[end] == "/":
            head, tail = url2[:end], url2[end:]
            while "/./" in tail:
                tail = tail.replace("/./", "/")
            url2 = head + tail
        if _ALREADY_CANONICAL.match(url2):
            return url2
    if not url or not _SCHEME_RE.match(url):
        return None
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if not parts.netloc:
        # parseAbsoluteURI requires a proper absolute URI; scheme-only or
        # opaque URIs (mailto:) are not crawlable identities here.
        return None
    netloc = _strip_default_port(scheme, parts.netloc.lower())
    path = _remove_dot_segments(_normalize_escapes(parts.path))
    query = _normalize_escapes(parts.query)
    # honor discard_fragments=False (Urls.hs discard with
    # discardFragments off preserves the fragment; review-found r5 — the
    # flag previously dropped fragments regardless)
    frag = "" if discard_fragments else _normalize_escapes(parts.fragment)
    return urlunsplit((scheme, netloc, path, query, frag))


def derelativise(on_url: str, raw: str) -> tuple[str, str]:
    """Resolve a raw href found on ``on_url``.

    Returns ``(kind, value)`` where kind is one of:
      - ``"url"``      — value is the canonical absolute URL
      - ``"warning"``  — mailto link (CrawlWarning, Urls.hs:74)
      - ``"error"``    — unparseable (CrawlError, Urls.hs:76-78, 95-97)

    Mirrors ``derelativise`` (Urls.hs:72-98): sanitize = drop fragment +
    encode spaces as %20; ``mailto:`` -> warning; absolute -> canonicalise;
    relative -> ``parseRelative`` query-strip (Urls.hs:56-70) then RFC 3986
    join with base and normalize.

    Documented deviation: the reference never trims and its RFC-strict
    parser ERRORS on refs containing tab/CR/LF; this engine follows the
    WHATWG rule (remove tab/CR/LF, as Python's urlsplit does) so branch
    selection and parsing see the same string — more permissive than the
    reference on control-character refs, byte-identical on clean ones.
    """
    # urlsplit silently removes tab/CR/LF anywhere in a URL (WHATWG rule),
    # so strip them here too — otherwise branch SELECTION (scheme match,
    # root-relative check) sees a different string than the parser does
    # (fuzz-found r5: '/\t/' chose the root-relative fast path but parses
    # as a protocol-relative '//'). No .strip(): the reference trims hrefs
    # at EXTRACTION only (Parse.hs:47 ``trim . snd``), never form actions
    # or direction captures (review-found r5).
    for c in "\t\r\n":
        if c in raw:
            raw = raw.replace(c, "")
    # dropFragments (Urls.hs:87-88)
    h = raw.find("#")
    if h != -1:
        raw = raw[:h]
    # encodeSpaces (Urls.hs:90-91)
    if " " in raw:
        raw = raw.replace(" ", "%20")
    if raw.startswith("mailto:"):
        return ("warning", f"Found an email {raw}")
    if _SCHEME_RE.match(raw):
        c = canonicalise(raw)
        if c is None:
            return ("error", f"Could not parse URL: {raw}")
        return ("url", c)
    base = canonicalise(on_url)
    if base is None:
        return ("error", f"Couldn't derelativise left side: {on_url}")
    # parseRelative's stripQueryParams (Urls.hs:56-70): a NON-absolute
    # ref's query is stripped before resolution — splitWhen on '?'/'#'
    # (fragments already dropped above) yields 2 segments -> query
    # dropped; exactly 3 segments ('a?b?c') -> the first query survives
    # and the rest rides the fragment, which the final canonicalise
    # discards; 4+ segments fall through unchanged (review-found r5 —
    # previously every relative ref kept its query, diverging from the
    # reference's frontier for query-carrying relative links)
    nq = raw.count("?")
    if nq == 1:
        raw = raw[: raw.index("?")]
    elif nq == 2:
        a_, b_, _c = raw.split("?")
        raw = a_ + "?" + b_
    if raw.startswith("/") and not raw.startswith("//"):
        # root-relative ref: RFC 3986 §5.3 target = base scheme+authority +
        # ref path/query — a plain concat, no urljoin machinery needed.
        # The authority ends at the first '/' OR '?': a query-only base
        # (http://h?q=v) has no path slash, and stopping only at '/' would
        # smuggle the ref into the base's query (review-found r5)
        a = base.find("://")
        ends = [e for e in (base.find("/", a + 3), base.find("?", a + 3)) if e != -1]
        end = min(ends) if ends else -1
        c = canonicalise((base if end == -1 else base[:end]) + raw)
        if c is None:
            return ("error", f"Couldn't derelativise right side: {raw}")
        return ("url", c)
    try:
        joined = urljoin(base, raw)
    except ValueError:
        return ("error", f"Couldn't derelativise right side: {raw}")
    c = canonicalise(joined)
    if c is None:
        return ("error", f"Couldn't derelativise right side: {raw}")
    return ("url", c)


def get_domain(url: str) -> str | None:
    """Host part: bytes after ``//`` up to the next ``/`` (Urls.hs:100-103)."""
    i = url.find("//")
    if i == -1:
        return None
    rest = url[i + 2 :]
    j = rest.find("/")
    d = rest if j == -1 else rest[:j]
    return d or None


def url_hash(url: str) -> int:
    """Stable unsigned-64 hash of the canonical URL (seen-set shard key)."""
    return int.from_bytes(
        hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class IncludePatterns:
    """Include filter (Crawl.hs:214-228): URL accepted iff ANY url pattern is
    an infix of the URL, OR any domain pattern is an infix of its domain.
    Empty pattern sets accept nothing (reference semantics: ``any`` over an
    empty list is False)."""

    url_patterns: frozenset[str] = field(default_factory=frozenset)
    domain_patterns: frozenset[str] = field(default_factory=frozenset)

    def accepts(self, url: str) -> bool:
        if any(p in url for p in self.url_patterns):
            return True
        d = get_domain(url)
        if d is None:
            return False
        return any(p in d for p in self.domain_patterns)
