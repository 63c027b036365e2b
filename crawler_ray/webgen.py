"""Deterministic synthetic web + image/caption corpus (seed-driven, no I/O RNG).

Per FIXTURES.md F1/F2: the "web" is a pure function of ``(n_pages, n_hosts,
seed)``. Every page has a URL, a host (Zipf-ish skewed assignment to exercise
politeness + skew handling), a kind (plain / redirect / meta_refresh / form /
direction), outlinks (rendered in messy styles to exercise canonicalization,
/root/reference/src/Urls.hs:15-98), and a corpus row (image bytes + caption,
BASELINE.json ``input_hint`` schema). "Fetching" a URL = resolving it against
this function — the sandbox stand-in for the reference's HTTP fetch
(/root/reference/src/Fetch.hs:29-70).

Scale note: pages are never materialized as a table — fetch actors recompute
``render_page`` on demand; only the corpus (payload bytes) is stored, sorted
by image_id for index-style lookup (lance-take equivalent).
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codecs import encode_image, perceptual_hash
from .sources.corpus import write_corpus

_VOCAB = (
    "amber basalt cedar delta ember fjord garnet harbor iris juniper kelp "
    "lumen meadow nectar onyx prism quartz raven slate tundra umber vellum "
    "willow xenon yarrow zephyr"
).split()

_FMTS = ("png", "jpeg", "bmp")
_DIMS = (16, 32, 48, 64)


_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


def _h(*parts) -> int:
    """Stable 64-bit hash of the argument tuple."""
    key = ":".join(map(str, parts)).encode()
    return _from_bytes(_blake2b(key, digest_size=8).digest(), "big")


# Arity-specialized, memoized variants of _h for the render/resolve hot
# path (bit-identical to _h — asserted in tests/test_webgen_oracle.py).
# process_url spends ~25% of its CPU in _h at crawl bench scale; f-string
# key building cuts ~40% of the per-call cost and ~20% of keys repeat
# in-process (page i is referenced again as another page's outlink).
@functools.lru_cache(maxsize=1 << 17)
def _h3(a, b, c) -> int:
    return _from_bytes(_blake2b(f"{a}:{b}:{c}".encode(), digest_size=8).digest(), "big")


@functools.lru_cache(maxsize=1 << 17)
def _h4(a, b, c, d) -> int:
    return _from_bytes(
        _blake2b(f"{a}:{b}:{c}:{d}".encode(), digest_size=8).digest(), "big"
    )


def host_name(h: int) -> str:
    """The synthetic web's hostname template, the single source of truth
    for a host's string (review r5: previously re-inlined at four sites;
    a template change would have silently desynchronized them)."""
    return f"host{h}.test"


@dataclass(frozen=True)
class WebSpec:
    n_pages: int
    n_hosts: int
    seed: int = 42

    # ---- structure ----------------------------------------------------
    def host_of(self, i: int) -> int:
        u = (_h3(self.seed, "host", i) % (1 << 20)) / (1 << 20)
        return min(self.n_hosts - 1, int(self.n_hosts * u * u))  # quadratic skew

    def is_private(self, i: int) -> bool:
        return _h3(self.seed, "priv", i) % 100 < 5

    def kind_of(self, i: int) -> str:
        r = _h3(self.seed, "kind", i) % 100
        if r < 72:
            return "plain"
        if r < 82:
            return "redirect"
        if r < 89:
            return "meta_refresh"
        if r < 94:
            return "form"
        return "direction"

    def url_of(self, i: int) -> str:
        pfx = "private/" if self.is_private(i) else ""
        return f"http://{host_name(self.host_of(i))}/{pfx}page/{i}"

    def outlink_targets(self, i: int) -> list[int]:
        n_out = 2 + _h3(self.seed, "nout", i) % 5
        return [_h4(self.seed, "out", i, j) % self.n_pages for j in range(n_out)]

    def redirect_chain(self, i: int) -> tuple[list[str], int]:
        """(chain urls in VISIT order: requested, hops..., landed), landed page.

        The reference accumulates its chain newest-first (Fetch.hs:46-69) and
        ``visited = nub (redirects ++ [requested])``; we store visit order and
        note WARC record-id/target = the LANDED url = last of visit order
        (equals head of the reference's internal order, WarcDocument.hs:27-29
        takes ``last redirectChain`` of visited = requested... see warc.py).
        """
        n_hops = 1 + _h3(self.seed, "nhops", i) % 2
        target = _h3(self.seed, "rt", i) % self.n_pages
        chain = [self.url_of(i)]
        chain += [
            f"http://{host_name(self.host_of(i))}/hop/{i}/{k}" for k in range(n_hops)
        ]
        chain.append(self.url_of(target))
        return chain, target

    def meta_target(self, i: int) -> int:
        return _h3(self.seed, "meta", i) % self.n_pages

    def direction_target(self, i: int) -> int:
        # direction target constrained to same host so the relative href resolves
        return self.outlink_targets(i)[0]

    def robots_disallow(self, host_idx: int) -> list[str]:
        """Path prefixes disallowed for this host (empty = allow all)."""
        return ["/private/"] if host_idx % 7 == 3 else []

    # ---- sessions / login (cookie semantics, Crawl.hs:159-167) --------
    def is_session_host(self, host_idx: int) -> bool:
        """Hosts whose /private/ pages are login-gated: fetching them
        without this host's session cookie 404s. The reference's cookie
        jar + shareCookies (Crawl.hs:104-167) is its login-session
        mechanism; these hosts make dropping cookies observable."""
        return host_idx % 5 == 2

    def credentials(self) -> tuple[str, str]:
        """The (username, password) a form instruction must POST to
        /submitLogin for the session cookie to be issued (static, like the
        reference's form-instruction params, eg/form_instructions.cfg)."""
        return ("admin", f"secret{self.seed}")

    def session_cookie(self, host_idx: int) -> tuple[str, str]:
        return (f"sess{host_idx}", f"tok{_h3(self.seed, 'tok', host_idx) % 10**8}")

    def page_gated(self, i: int, cookies: tuple[tuple[str, str], ...]) -> bool:
        """True if page ``i`` is session-gated AND ``cookies`` lacks its
        host's session cookie (the server answers 404)."""
        h = self.host_of(i)
        return (
            self.is_private(i)
            and self.is_session_host(h)
            and self.session_cookie(h) not in tuple(cookies)
        )

    # ---- rendering ----------------------------------------------------
    def _style_link(self, i: int, j: int, target: int) -> str:
        """Render outlink j of page i in one of several messy styles; all
        canonicalise back to url_of(target) (or resolve relative)."""
        url = self.url_of(target)
        style = _h4(self.seed, "style", i, j) % 6
        if style == 1:
            return url.replace("http://", "HTTP://", 1)
        if style == 2:
            return url.replace(".test/", ".test:80/", 1)
        if style == 3:
            return url + "#section-" + str(j)
        if style == 4 and self.host_of(target) == self.host_of(i):
            # root-relative path; resolves against this page's host
            pfx = "/private/" if self.is_private(target) else "/"
            return f"{pfx}page/{target}"
        if style == 5:
            return url.replace("/page/", "/./page/", 1)
        return url

    def render_page(self, i: int, caption: str) -> str:
        kind = self.kind_of(i)
        head = "<head>"
        if kind == "meta_refresh":
            t = self.meta_target(i)
            head += (
                f'<meta http-equiv="refresh" content="0; url={self.url_of(t)}">'
            )
        head += "</head>"
        body = [f"<p>{caption}</p>", f'<img src="/img/{i}">']
        for j, t in enumerate(self.outlink_targets(i)):
            body.append(f'<a href="{self._style_link(i, j, t)}">link{j}</a>')
        if _h3(self.seed, "mailto", i) % 10 == 0:
            body.append('<a href="mailto:noreply@example.test">mail</a>')
        if _h3(self.seed, "badhref", i) % 17 == 0:
            body.append('<a href="http://">broken</a>')
        if kind == "form":
            body.append(
                '<form action="/submitLogin" method="post">'
                '<input name="username" value="">'
                '<input name="password" value="">'
                '<input name="csrf" value="tok"></form>'
            )
        if kind == "direction":
            d = self.direction_target(i)
            body.append(f'<span data-next="{self.url_of(d)}">next</span>')
        return f"<html>{head}<body>{''.join(body)}</body></html>"

    # ---- URL resolution (the inverse of url_of; the 'DNS + HTTP server')
    def resolve(self, url: str) -> tuple[str, int | None]:
        """Resolve a canonical URL to ('page', page_id) | ('submit', page_id)
        | ('notfound', None). Cookie/param-blind view (no session gating,
        no credential check) — use resolve_request for the full server."""
        kind, pid, _ = self.resolve_request(url, cookies=None)
        return (kind, pid)

    def resolve_request(
        self,
        url: str,
        method: str = "GET",
        params: tuple[tuple[str, str], ...] = (),
        cookies: tuple[tuple[str, str], ...] | None = (),
    ) -> tuple[str, int | None, tuple[tuple[str, str], ...]]:
        """The synthetic HTTP server: (kind, page_id, set_cookies).

        - ``/submitLogin`` with the host's correct credentials in ``params``
          (urlencoded POST body per Request.hs:33 + DownloadRequest.hs:15-34;
          query string for GET forms) issues the host's session cookie.
        - ``/private/`` pages on session hosts 404 unless the request's
          cookie jar (Request.hs:36 createCookieJar) holds that cookie.
        - ``cookies=None`` disables gating (spec-introspection view).
        """
        no_cookies: tuple[tuple[str, str], ...] = ()
        if not url.startswith("http://host"):
            return ("notfound", None, no_cookies)
        rest = url[len("http://host") :]
        dot = rest.find(".test/")
        if dot == -1:
            return ("notfound", None, no_cookies)
        try:
            h = int(rest[:dot])
        except ValueError:
            return ("notfound", None, no_cookies)
        path = rest[dot + len(".test") :]
        if path == "/submitLogin":
            target = _h3(self.seed, "submit", h) % self.n_pages
            set_cookies = no_cookies
            if self.is_session_host(h):
                p = dict(params)
                user, pw = self.credentials()
                if p.get("username") == user and p.get("password") == pw:
                    set_cookies = (self.session_cookie(h),)
            return ("submit", target, set_cookies)
        private = False
        if path.startswith("/private/"):
            private = True
            path = path[len("/private") :]
        if path.startswith("/page/"):
            try:
                i = int(path[len("/page/") :])
            except ValueError:
                return ("notfound", None, no_cookies)
            if (
                0 <= i < self.n_pages
                and self.host_of(i) == h
                and self.is_private(i) == private
            ):
                if cookies is not None and self.page_gated(i, cookies):
                    return ("notfound", None, no_cookies)
                return ("page", i, no_cookies)
        return ("notfound", None, no_cookies)

    # ---- corpus -------------------------------------------------------
    def image_id(self, i: int) -> str:
        return f"img{i:08d}"

    def caption_of(self, i: int) -> str:
        words = [
            _VOCAB[_h4(self.seed, "cap", i, k) % len(_VOCAB)] for k in range(4)
        ]
        return f"caption for img{i:08d} " + " ".join(words)

    # ~10% of non-base pages reuse a base page's image — half exact
    # copies, half sparse low-amplitude noise — giving the corpus the
    # image near-duplicate structure a real crawl has (and phash-based
    # dedup something true to find). Bases (i < N_DUP_BASES) are never
    # duplicates themselves, so dup chains have depth 1.
    N_DUP_BASES = 100

    def dup_of(self, i: int) -> int | None:
        """Base page whose image this page near-duplicates, or None."""
        if i < self.N_DUP_BASES or self.n_pages <= self.N_DUP_BASES:
            return None
        if _h3(self.seed, "pdup", i) % 10 != 0:
            return None
        return _h3(self.seed, "pdupof", i) % self.N_DUP_BASES

    def pixels_of(self, i: int) -> np.ndarray:
        base = self.dup_of(i)
        if base is not None:
            px = self.pixels_of(base)
            if _h3(self.seed, "pnoise", i) % 2:
                # noisy copy: brighten/darken a few whole 8x8-grid blocks
                # by ±8 so the block-mean phash differs in a FEW bits
                # (exact copies cover distance 0; these cover 1..~6)
                rng = np.random.Generator(
                    np.random.PCG64(self.seed * 2_000_003 + i)
                )
                px = px.astype(np.int16)
                h, w = px.shape[:2]
                bh, bw = max(1, h // 8), max(1, w // 8)
                for _ in range(int(rng.integers(1, 4))):
                    by, bx = int(rng.integers(0, 8)), int(rng.integers(0, 8))
                    d = 8 if rng.integers(0, 2) else -8
                    px[by * bh : (by + 1) * bh, bx * bw : (bx + 1) * bw] += d
                px = np.clip(px, 0, 255).astype(np.uint8)
            return px
        d = _h3(self.seed, "dim", i)
        w, h = _DIMS[d % 4], _DIMS[(d >> 8) % 4]
        # the bytes of Generator(PCG64(s)).integers(0, 256, (h, w, 3),
        # uint8), read straight off the raw stream: numpy's full-range
        # uint8 draw takes the bytes of each next_uint32 low-first, and
        # PCG64 hands out each uint64's low then high half
        n = h * w * 3
        raw = np.random.PCG64(self.seed * 1_000_003 + i).random_raw(-(-n // 8))
        return raw.astype("<u8", copy=False).view(np.uint8)[:n].reshape(h, w, 3)

    def fmt_of(self, i: int) -> str:
        return _FMTS[_h3(self.seed, "fmt", i) % 3]

    def corpus_row(self, i: int) -> dict:
        px = self.pixels_of(i)
        fmt = self.fmt_of(i)
        return {
            "image_id": self.image_id(i),
            "bytes": encode_image(px, fmt),
            "w": px.shape[1],
            "h": px.shape[0],
            "fmt": fmt,
            "caption": self.caption_of(i),
            "phash": perceptual_hash(px),
        }


CORPUS_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


def build_corpus_table(spec: WebSpec, lo: int = 0, hi: int | None = None) -> pa.Table:
    hi = spec.n_pages if hi is None else hi
    rows = [spec.corpus_row(i) for i in range(lo, hi)]
    cols = {name: [r[name] for r in rows] for name in CORPUS_SCHEMA.names}
    return pa.Table.from_pydict(cols, schema=CORPUS_SCHEMA)


def ensure_web(
    n_pages: int,
    n_hosts: int,
    seed: int = 42,
    cache_dir: str = "/tmp/crawler_ray_cache",
) -> tuple[WebSpec, str]:
    """Build (or reuse cached) the flat corpus parquet, sorted by image_id.

    It is the ops layer's image dataset (``ops.multimodal.corpus_for_sf``)
    and the input of ``ensure_web_sharded``; the crawl reads payloads only
    from the corpus file that one builds.
    """
    spec = WebSpec(n_pages=n_pages, n_hosts=n_hosts, seed=seed)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"corpus_v2_{n_pages}_{n_hosts}_{seed}.parquet")  # v2: planted dups
    if not os.path.exists(path):
        # per-process tmp name: a FIXED '.tmp' let two concurrent builders
        # interleave writes into one file and promote a corrupt parquet
        # into the cache (review r5); with unique tmps the loser's
        # os.replace merely re-promotes identical (deterministic) bytes
        tmp = f"{path}.tmp.{os.getpid()}"
        writer = pq.ParquetWriter(tmp, CORPUS_SCHEMA)
        step = 4096
        for lo in range(0, n_pages, step):
            writer.write_table(
                build_corpus_table(spec, lo, min(n_pages, lo + step)),
                row_group_size=1024,
            )
        writer.close()
        os.replace(tmp, path)  # atomic: concurrent builders converge
    return spec, path


def ensure_web_sharded(
    n_pages: int,
    n_hosts: int,
    n_shards: int | None = None,
    seed: int = 42,
    cache_dir: str = "/tmp/crawler_ray_cache",
) -> tuple[WebSpec, str]:
    """Build (or reuse cached) the crawl's corpus file: the flat corpus's
    rows in ``image_id`` order plus an int64 ``page_id`` take key, as one
    uncompressed Arrow IPC file (``sources.corpus.write_corpus``) that
    ``sources.corpus.open_corpus`` serves through a memory map.

    ``n_shards`` is unused: the corpus is not partitioned, and the
    parameter stays only for callers that still pass a fetch-shard count
    positionally."""
    spec, flat_path = ensure_web(n_pages, n_hosts, seed, cache_dir)
    path = os.path.join(cache_dir, f"corpus_mmap_v5_{n_pages}_{n_hosts}_{seed}.arrow")
    if not os.path.exists(path):
        write_corpus(flat_path, path)
    return spec, path
