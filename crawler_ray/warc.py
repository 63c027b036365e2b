"""WARC 1.0 serialization of crawled documents.

Layout per the reference's WarcDocument instance
(/root/reference/src/WarcDocument.hs:17-45): WARC/1.0 version line, the
three Content-Length variants + Compression-Mode, WARC-Record-ID and
WARC-Target-URI both set to the LAST url of the redirect chain (the
originally-requested URL in the reference's chain order, which our
``redirect_chain`` column preserves — landed-first, requested-last),
WARC-Type: response, uncompressed body.

Usage: ``docs_ds.map_batches(warc_batch, batch_format="pyarrow")`` followed
by a binary sink, or ``write_warc(ds, path)`` for a per-partition .warc
file tree (single-writer file of the reference -> per-partition files +
manifest, SURVEY.md §2.2 K1).
"""

from __future__ import annotations

import os

import pyarrow as pa

CRLF = "\r\n"


def warc_entry(redirect_chain: list[str], content: bytes) -> bytes:
    url = redirect_chain[-1]  # last of chain (WarcDocument.hs:27-29)
    n = len(content)
    header = (
        "WARC/1.0" + CRLF
        + "Compression-Mode: Uncompressed" + CRLF
        + f"Content-Length: {n}" + CRLF
        + f"Original-Content-Length: {n}" + CRLF
        + f"Uncompressed-Content-Length: {n}" + CRLF
        + f"WARC-Record-ID: {url}" + CRLF
        + f"WARC-Target-URI: {url}" + CRLF
        + "WARC-Type: response" + CRLF
        + CRLF
    )
    return header.encode() + content + CRLF.encode() + CRLF.encode()


def warc_batch(batch: pa.Table) -> pa.Table:
    """Adds a ``warc`` binary column serializing each doc row."""
    chains = batch["redirect_chain"].to_pylist()
    contents = batch["content"].to_pylist()
    entries = [warc_entry(c, b) for c, b in zip(chains, contents)]
    return batch.append_column("warc", pa.array(entries, pa.binary()))


def write_warc(docs_ds, out_dir: str) -> int:
    """Write one .warc file per block; returns entry count."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"entries": pa.array([], pa.int64())})
        rnd = batch["round"][0].as_py() if "round" in batch.column_names else 0
        # deterministic content digest of the block's URL list: builtin
        # hash((host, num_rows)) was PYTHONHASHSEED-randomized (task
        # retries rewrote the same block under a NEW name -> duplicate
        # entries) and collision-prone under Zipf host skew (same-host
        # same-size blocks silently clobbered each other; review r5)
        import hashlib

        dig = hashlib.blake2b(
            "\n".join(batch["url"].to_pylist()).encode(), digest_size=8
        ).hexdigest()
        name = f"{rnd:05d}-{dig}.warc"
        path = os.path.join(out_dir, name)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            for chain, content in zip(
                batch["redirect_chain"].to_pylist(), batch["content"].to_pylist()
            ):
                f.write(warc_entry(chain, content))
        os.replace(tmp, path)
        return pa.table({"entries": pa.array([batch.num_rows], pa.int64())})

    counts = docs_ds.map_batches(write_block, batch_format="pyarrow")
    return sum(r["entries"] for r in counts.take_all())
