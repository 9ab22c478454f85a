"""Word n-gram decontamination against evaluation corpora.

A QA pair is contaminated when any n-word window of its question or answer
also appears in an evaluation text. Texts are compared after aggressive
normalization (case, punctuation, whitespace) so that surface formatting
cannot hide an overlap. Short texts still participate: any segment shorter
than n words contributes its whole word sequence as a single gram, on both the
eval side and the query side, so tiny benchmark items remain detectable.

The index is one sorted array of 64-bit gram hashes, 8 bytes per gram,
searched with bisect. A run pins it in its run dir (IndexPin): a pinned file is
read when a run or resume starts; else the first verified candidate reads it
from a per-user cache in the run's own process, or on a miss starts a child,
`python -S -m qaforge.decontam EVAL_DIR N PATH`, to build and cache it.
"""

from __future__ import annotations

import hashlib
import os
import re
import stat
import struct
import sys
import threading
from array import array
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field
from glob import glob
from itertools import accumulate, compress, islice
from operator import ne
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ConfigDriftError, IngestError
from .types import text_records

DEFAULT_NGRAM = 13

# Byte table for ASCII text: alphanumerics stay, every other byte becomes a space.
_ASCII_WORD_BYTES = bytes(b if b < 128 and chr(b).isalnum() else 0x20 for b in range(256))
# A maximal run of str.isalnum() characters: \w is isalnum() plus "_".
_WORD_RE = re.compile(r"[^\W_]+")


def normalize_text(text: str) -> list[str]:
    """Lowercase, map punctuation to spaces, collapse whitespace, split to words."""
    lowered = text.lower()
    # Test the lowered text: U+212A KELVIN SIGN is not ASCII, its lowercase "k" is.
    if lowered.isascii():
        return lowered.encode("ascii").translate(_ASCII_WORD_BYTES).decode("ascii").split()
    return _WORD_RE.findall(lowered)


def gram_hash(words: Sequence[str]) -> int:
    # 64-bit hashes keep the index to 8 bytes per gram; collisions at this
    # width are vanishingly rare for corpus-scale gram counts. The value is
    # int(content_hash(" ".join(words), bits=64), 16) without the hex round trip.
    data = " ".join(words).encode("utf-8")
    digest = hashlib.blake2b(len(data).to_bytes(8, "big") + data, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _segment_grams(words: Sequence[str], n: int) -> array:
    """gram_hash of each window of one contiguous segment, in window order.

    Windows never span segments; a non-empty segment shorter than n words
    yields itself as one gram. The segment is joined and encoded once, and
    each window's bytes are sliced out of that.
    """
    grams = array("Q")
    if not words:
        return grams
    data = " ".join(words).encode("utf-8")
    if len(words) < n:
        windows = [data]
    else:
        # Byte offset at which each word starts, plus one past the end.
        sizes = map(len, words) if data.isascii() else (len(w.encode("utf-8")) for w in words)
        starts = list(accumulate((size + 1 for size in sizes), initial=0))
        windows = [data[a : b - 1] for a, b in zip(starts, starts[n:])]
    # The digests are the big-endian bytes of each gram_hash value.
    blake2b = hashlib.blake2b
    grams.frombytes(b"".join([blake2b(len(w).to_bytes(8, "big") + w, digest_size=8).digest()
                              for w in windows]))
    if sys.byteorder == "little":
        grams.byteswap()
    return grams


@dataclass
class NGramIndex:
    n: int = DEFAULT_NGRAM
    grams: array = field(default_factory=lambda: array("Q"))  # sorted, no duplicates
    source_count: int = 0

    def __contains__(self, gram: int) -> bool:
        i = bisect_left(self.grams, gram)
        return i < len(self.grams) and self.grams[i] == gram


@dataclass
class ContaminationReport:
    contaminated: bool
    matched_gram_count: int = 0
    first_match_offset: Optional[int] = None


def build_index(eval_texts: Iterable[str], n: int = DEFAULT_NGRAM) -> NGramIndex:
    if n < 1:
        raise ValueError("n must be >= 1")
    hashes = array("Q")
    sources = 0
    for text in eval_texts:
        words = normalize_text(text)
        if words:
            hashes.extend(_segment_grams(words, n))
            sources += 1
    # One sort and one dedup pass. The sorted list of ints is the transient
    # peak, about 56 B per gram with the array; a set of the ints takes 69.
    ordered = sorted(hashes)
    del hashes
    # Keep each value that differs from its successor, and the last one.
    grams = array("Q", compress(ordered, map(ne, ordered, islice(ordered, 1, None))))
    grams.extend(ordered[-1:])
    return NGramIndex(n=n, grams=grams, source_count=sources)


def is_contaminated(question: str, answer: str, index: NGramIndex) -> ContaminationReport:
    """Check a QA pair against the index.

    The question and answer are scanned as separate segments, which is what a
    boundary marker between them would achieve: no window mixes question words
    with answer words. Offsets are word positions in the concatenated
    question-then-answer sequence.
    """
    q_words = normalize_text(question)
    a_words = normalize_text(answer)
    matched = 0
    first: Optional[int] = None
    for base, words in ((0, q_words), (len(q_words), a_words)):
        for start, gram in enumerate(_segment_grams(words, index.n)):
            if gram in index:
                matched += 1
                if first is None:
                    first = base + start
    return ContaminationReport(
        contaminated=matched > 0,
        matched_gram_count=matched,
        first_match_offset=first,
    )


def eval_paths(eval_dir: str) -> list[str]:
    """Every .jsonl file under eval_dir, sorted; IngestError if the dir is missing or holds none."""
    if not os.path.isdir(eval_dir):
        raise IngestError(f"eval dir not found: {eval_dir}")
    paths = sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(eval_dir)
        for name in names
        if name.endswith(".jsonl")
    )
    if not paths:
        raise IngestError(f"eval dir holds no .jsonl file: {eval_dir}")
    return paths


def load_eval_dir(eval_dir: str) -> Iterator[str]:
    """Yield the non-empty eval texts text_records finds in every .jsonl file under eval_dir."""
    for path in eval_paths(eval_dir):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for rec in text_records(fh):
                if rec is not None and rec["text"]:
                    yield rec["text"]


def build_index_from_dir(eval_dir: str, n: int = DEFAULT_NGRAM) -> NGramIndex:
    return build_index(load_eval_dir(eval_dir), n=n)


# The pinned index file: a header, then the sorted grams as little-endian u64.
INDEX_FILE = "eval_index.bin"
# Bump whenever normalize_text or gram_hash changes: a pinned index built by
# other code would silently screen against different grams.
INDEX_FORMAT_VERSION = 1
_INDEX_MAGIC = b"QAFIDX\0\0"
_INDEX_HEADER = struct.Struct("<8sIIQQ")  # magic, version, n, source_count, gram count
_TMP_FILE = re.compile(re.escape(INDEX_FILE) + r"\.([0-9]{1,9})\.tmp")  # write_index's, by pid
CACHE_KEEP = 4  # the eval-index cache keeps this many most recently used indexes


def write_index(index: NGramIndex, path: str) -> None:
    """Write index to path atomically: a crash leaves the old file or none."""
    grams = index.grams
    if sys.byteorder == "big":
        grams = array("Q", grams)
        grams.byteswap()
    tmp = f"{path}.{os.getpid()}.tmp"  # an orphaned build never writes into another's tmp file
    with open(tmp, "wb") as fh:
        fh.write(_INDEX_HEADER.pack(_INDEX_MAGIC, INDEX_FORMAT_VERSION, index.n,
                                    index.source_count, len(grams)))
        grams.tofile(fh)
    os.replace(tmp, path)


def read_index(path: str, n: int) -> NGramIndex:
    """Load an index written by write_index; ConfigDriftError if it does not fit n or this code."""
    with open(path, "rb") as fh:
        header = fh.read(_INDEX_HEADER.size)
        if len(header) == _INDEX_HEADER.size:
            magic, version, got_n, sources, count = _INDEX_HEADER.unpack(header)
            size = os.fstat(fh.fileno()).st_size
            if (magic, version, got_n, size) == (_INDEX_MAGIC, INDEX_FORMAT_VERSION, n,
                                                 _INDEX_HEADER.size + 8 * count):
                grams = array("Q")
                grams.fromfile(fh, count)
                if sys.byteorder == "big":
                    grams.byteswap()
                return NGramIndex(n=n, grams=grams, source_count=sources)
    raise ConfigDriftError(
        f"{path} was not written for this run (want format {INDEX_FORMAT_VERSION}, n={n});"
        " finish the run with the version that wrote it, or start a new run"
    )


class IndexPin:
    """The run's eval index, pinned in <run_dir>/eval_index.bin.

    A pinned file is read here, before a run or resume makes any provider call,
    and tmp files whose writers no longer run are removed. Else the first index()
    call writes the empty index without an eval_dir, or copies eval_dir's cached
    index in the calling thread, or on a miss starts a child to build it, moved
    to cpus, the caller's, to use the CPUs the run leaves idle. Every candidate
    of a run dir is screened against the same grams, even if eval_dir changes.
    """

    def __init__(self, run_dir: str, eval_dir: Optional[str], n: int,
                 cpus: Optional[set[int]] = None):
        self.path, self.n, self._eval_dir = os.path.join(run_dir, INDEX_FILE), n, eval_dir
        for name in os.listdir(run_dir):  # the caller holds the run dir's lock
            if (tmp := _TMP_FILE.fullmatch(name)) and not _runs(int(tmp[1])):
                os.remove(os.path.join(run_dir, name))
        self._index = read_index(self.path, n) if os.path.exists(self.path) else None
        self._cpus, self._child, self._error, self._lock = cpus, None, "", threading.Lock()

    def index(self) -> Optional[NGramIndex]:
        """The pinned index; None while the build runs; IngestError, on every call, if it failed."""
        with self._lock:
            if self._index is None and not self._error:
                if not self._eval_dir:
                    write_index(NGramIndex(n=self.n), self.path)
                elif self._child is None:
                    with suppress(OSError, IngestError, ConfigDriftError):  # else a miss: build
                        cache = _cache_file(self._eval_dir, self.n)
                        index = read_index(cache, self.n)
                        os.utime(cache)  # the most recently used: the last to be evicted
                        write_index(index, self.path)
                        self._index = index
                        return index
                    import subprocess  # only on a miss, as gateway.py loads its HTTP stack

                    # -S skips the site-packages start-up, so the package root goes first
                    # on PYTHONPATH. close_fds (the default) keeps run.lock out of the child.
                    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
                    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
                    self._child = subprocess.Popen(
                        [sys.executable, "-S", "-m", "qaforge.decontam", self._eval_dir,
                         str(self.n), self.path],
                        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
                    if self._cpus is not None:  # else, or if this fails, it stays on the run's CPU
                        with suppress(OSError):
                            os.sched_setaffinity(self._child.pid, self._cpus)
                if self._child is None or self._child.poll() == 0:
                    self._index = read_index(self.path, self.n)
                elif self._child.returncode:  # set by poll() once the child has exited
                    self._error = (self._child.stderr.read().decode("utf-8", "replace").strip()
                                   .rpartition("\n")[2] or f"exit status {self._child.returncode}")
            if self._error:
                raise IngestError(f"eval index build failed: {self._error}")
            return self._index

    def close(self) -> None:
        """Kill and reap a build that is still running, and remove its tmp file."""
        if self._child is not None:
            self._child.kill()
            self._child.communicate()  # reaps it and closes its stderr
            with suppress(FileNotFoundError):  # the build finished, or had not begun to write
                os.remove(f"{self.path}.{self._child.pid}.tmp")


def _runs(pid: int) -> bool:
    """Whether pid is a process this user may signal; signal 0 only checks."""
    with suppress(OSError):  # none, or another user's, which wrote no file of ours
        return os.kill(pid, 0) is None
    return False


def _cache_file(eval_dir: str, n: int) -> str:
    """The cache file of eval_dir's index, keyed on the format, n, the Python, code and evals."""
    root = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "qaforge")
    os.makedirs(root, 0o700, exist_ok=True)  # the mode holds only for a dir made here, so:
    st = os.lstat(root)  # a dir others can write to, or a symlink, may hold a planted index
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise OSError(f"cache dir not private to this user: {root}")
    head = (b"%d" % INDEX_FORMAT_VERSION, b"%d" % n, sys.version.encode())  # its Unicode data
    key = hashlib.blake2b(b"".join(len(p).to_bytes(8, "big") + p for p in head), digest_size=16)
    for p in [__file__, os.path.join(os.path.dirname(__file__), "types.py"), *eval_paths(eval_dir)]:
        with open(p, "rb") as fh:  # in chunks: the eval set need not fit in memory
            key.update(os.fstat(fh.fileno()).st_size.to_bytes(8, "big"))
            while chunk := fh.read(1 << 20):
                key.update(chunk)
    return os.path.join(root, f"eval-index-{key.hexdigest()}.bin")


def _pin_index(eval_dir: str, n: int, path: str) -> None:
    """IndexPin's child, started on a cache miss: build, write and cache eval_dir's index."""
    cache = ""
    with suppress(OSError, IngestError):  # unkeyed: build all the same
        cache = _cache_file(eval_dir, n)
    index = build_index_from_dir(eval_dir, n)
    write_index(index, path)
    with suppress(OSError, IngestError):  # cached only if no eval file changed since it was keyed
        if _cache_file(eval_dir, n) == cache:
            write_index(index, cache)
            root = os.path.dirname(cache)  # and evict all but the CACHE_KEEP most recently used
            used = [os.path.join(root, name) for name in glob("eval-index-*.bin", root_dir=root)]
            for old in sorted(used, key=os.path.getmtime)[:-CACHE_KEEP]:
                os.remove(old)


if __name__ == "__main__":  # IndexPin's child: on failure, one `Type: message` line and exit 1
    try:
        _pin_index(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    except Exception as exc:
        sys.exit(f"{type(exc).__name__}: {exc}")
