"""Chat-completion transport: HTTP provider, deterministic mock, accounting.

The wire format follows the de-facto OpenAI-compatible chat-completions
JSON shape, so any compatible endpoint (hosted or locally served) works.
The mock provider is a pure function of (rendered prompt digest, call
nonce, seed) over a corpus of operator sources, which makes discovery runs
reproducible and resumable without network access.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field

from .candidates import SEED_SOURCE
from .errors import (
    AuthError,
    ConfigError,
    ExtractionError,
    MalformedResponseError,
    RetryExhaustedError,
)
from .prompts import prompt_digest
from .util import sha256_hex


@dataclass
class ChatRequest:
    messages: list[dict]
    model: str = "default"
    temperature: float = 0.7
    max_tokens: int = 4096
    # caller-chosen call index; lets deterministic providers vary responses
    # across otherwise identical prompts and survive run resumption
    nonce: int = 0


@dataclass
class ChatExchange:
    request: ChatRequest
    response: str
    input_tokens: int = 0
    output_tokens: int = 0
    latency: float = 0.0
    retry_count: int = 0


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.S)


def extract_code(response: str) -> str:
    """Interior of the last fenced code block (language tag ignored)."""
    matches = _FENCE_RE.findall(response or "")
    if not matches:
        raise ExtractionError("no fenced code block in response")
    block = matches[-1]
    return block[:-1] if block.endswith("\n") else block


# ---------------------------------------------------------------------------
# Mock corpus: operator sources of varying quality and length, written
# against the Python candidate interface.

_CORPUS_CLUSTER = '''\
def select_by_llm_1(sol):
    inst = sol.instance
    n = inst.num_customers
    k = min(getRandomNumber(8, 16), n)
    seed = getRandomNumber(1, n)
    out = [seed]
    for c in inst.adjacency[seed]:
        if len(out) >= k:
            break
        if c != 0:
            out.append(int(c))
    return out


def sort_by_llm_1(customers, instance):
    customers.sort(key=lambda c: (-instance.dist[0][c], c))
'''

_CORPUS_SEGMENTS = '''\
def select_by_llm_1(sol):
    tours = sol.tours
    if not tours:
        return []
    out = []
    for _ in range(getRandomNumber(2, 4)):
        tour = tours[getRandomNumber(0, len(tours) - 1)]
        cs = tour.customers
        if not cs:
            continue
        ln = getRandomNumber(1, min(8, len(cs)))
        start = getRandomNumber(0, len(cs) - ln)
        out.extend(cs[start:start + ln])
    return out


def sort_by_llm_1(customers, instance):
    customers.sort(key=lambda c: (-instance.demand[c], c))
'''

_CORPUS_RELATED = '''\
def select_by_llm_1(sol):
    inst = sol.instance
    n = inst.num_customers
    k = min(getRandomNumber(10, 18), n)
    chosen = [getRandomNumber(1, n)]
    while len(chosen) < k:
        ref = chosen[getRandomNumber(0, len(chosen) - 1)]
        added = False
        for c in inst.adjacency[ref][:24]:
            if c != 0 and c not in chosen and getRandomFractionFast() < 0.55:
                chosen.append(int(c))
                added = True
                break
        if not added:
            chosen.append(getRandomNumber(1, n))
    return chosen


def sort_by_llm_1(customers, instance):
    shuffle(customers)
'''

_CORPUS_TOURPAIR = '''\
def select_by_llm_1(sol):
    tours = sol.tours
    if not tours:
        return []
    t1 = getRandomNumber(0, len(tours) - 1)
    first = tours[t1].customers
    out = list(first)
    if first:
        anchor = first[getRandomNumber(0, len(first) - 1)]
        for c in sol.instance.adjacency[anchor][:12]:
            if c != 0 and sol.customer_to_tour[c] not in (-1, t1):
                out.extend(tours[sol.customer_to_tour[c]].customers[:6])
                break
    return out[:24]


def sort_by_llm_1(customers, instance):
    customers.sort(key=lambda c: (instance.dist[0][c], c))
'''

_CORPUS_SMALL_RANDOM = '''\
def select_by_llm_1(sol):
    n = sol.instance.num_customers
    k = min(getRandomNumber(5, 12), n)
    out = set()
    while len(out) < k:
        out.add(getRandomNumber(1, n))
    return sorted(out)


def sort_by_llm_1(customers, instance):
    customers.sort(key=lambda c: (instance.demand[c], c))
'''

_CORPUS_MIXED = '''\
def select_by_llm_1(sol):
    inst = sol.instance
    n = inst.num_customers
    if getRandomFractionFast() < 0.5:
        k = min(getRandomNumber(10, 20), n)
        out = set()
        while len(out) < k:
            out.add(getRandomNumber(1, n))
        return list(out)
    k = min(getRandomNumber(8, 14), n)
    seed = getRandomNumber(1, n)
    out = [seed]
    for c in inst.adjacency[seed]:
        if len(out) >= k:
            break
        if c != 0 and getRandomFractionFast() < 0.8:
            out.append(int(c))
    return out


def sort_by_llm_1(customers, instance):
    if getRandomFractionFast() < 0.3:
        shuffle(customers)
    else:
        customers.sort(key=lambda c: (-instance.dist[0][c], c))
'''

MOCK_CORPUS = (
    SEED_SOURCE,
    _CORPUS_CLUSTER,
    _CORPUS_SEGMENTS,
    _CORPUS_RELATED,
    _CORPUS_TOURPAIR,
    _CORPUS_SMALL_RANDOM,
    _CORPUS_MIXED,
)


class MockProvider:
    """Deterministic offline provider.

    With ``script`` set, replays the given responses in order (verbatim).
    Otherwise the reply is a corpus source picked by hashing the rendered
    prompt digest, the request nonce, and the provider seed; fenced like a
    real model reply. Usage is always reported as (0, 0).
    """

    def __init__(self, seed: int = 0, corpus=MOCK_CORPUS, script: list[str] | None = None):
        self.seed = seed
        self.corpus = list(corpus)
        self.script = list(script) if script is not None else None
        self._cursor = 0

    def complete(self, request: ChatRequest) -> ChatExchange:
        if self.script is not None:
            if self._cursor >= len(self.script):
                raise MalformedResponseError("scripted mock exhausted")
            response = self.script[self._cursor]
            self._cursor += 1
        else:
            digest = prompt_digest(request.messages)
            pick = int(sha256_hex(f"{digest}|{request.nonce}|{self.seed}"), 16) % len(self.corpus)
            source = self.corpus[pick]
            response = f"Here is the implementation.\n\n```python\n{source}```"
        return ChatExchange(request=request, response=response, input_tokens=0, output_tokens=0)


class HttpProvider:
    """OpenAI-compatible chat-completions client with retry/backoff.

    Transient transport errors and 429/5xx responses are retried with
    exponential backoff up to ``max_retries``; 401/403 raise AuthError
    immediately; anything not shaped like a chat completion raises
    MalformedResponseError.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        max_retries: int = 4,
        backoff_base: float = 0.5,
        timeout: float = 120.0,
        sleep=time.sleep,
    ):
        if not endpoint:
            raise ConfigError("http provider requires an endpoint URL")
        self.endpoint = endpoint
        self.api_key = api_key
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._sleep = sleep

    def _post(self, payload: dict):
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        resp = requests.post(self.endpoint, json=payload, headers=headers, timeout=self.timeout)
        return resp.status_code, resp

    def complete(self, request: ChatRequest) -> ChatExchange:
        import requests

        payload = {
            "model": request.model,
            "messages": request.messages,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        started = time.perf_counter()
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(min(self.backoff_base * 2 ** (attempt - 1), 8.0))
            try:
                status, resp = self._post(payload)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                continue
            if status in (401, 403):
                raise AuthError(f"authentication failed (HTTP {status})")
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            try:
                data = resp.json()
                content = data["choices"][0]["message"]["content"]
            except Exception as exc:
                raise MalformedResponseError(f"unexpected response shape: {exc}") from exc
            if not content:
                raise MalformedResponseError("empty completion content")
            usage = data.get("usage") or {}
            return ChatExchange(
                request=request,
                response=content,
                input_tokens=int(usage.get("prompt_tokens", 0)),
                output_tokens=int(usage.get("completion_tokens", 0)),
                latency=time.perf_counter() - started,
                retry_count=attempt,
            )
        raise RetryExhaustedError(f"gave up after {self.max_retries + 1} attempts: {last_error}")


@dataclass
class UsageLedger:
    """Cumulative token/cost accounting across a run."""

    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    total_latency: float = 0.0
    input_cost_per_mtok: float = 0.0
    output_cost_per_mtok: float = 0.0

    def add(self, exchange: ChatExchange) -> None:
        self.calls += 1
        self.input_tokens += exchange.input_tokens
        self.output_tokens += exchange.output_tokens
        self.total_latency += exchange.latency

    @property
    def cost(self) -> float:
        return (
            self.input_tokens * self.input_cost_per_mtok
            + self.output_tokens * self.output_cost_per_mtok
        ) / 1_000_000

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "total_latency_s": round(self.total_latency, 3),
            "input_cost_per_mtok": self.input_cost_per_mtok,
            "output_cost_per_mtok": self.output_cost_per_mtok,
            "cost": self.cost,
        }


class Gateway:
    """Shareable front door: request pacing (``min_interval``) plus the usage ledger."""

    def __init__(
        self,
        provider,
        model: str = "default",
        min_interval: float = 0.0,
        input_cost_per_mtok: float = 0.0,
        output_cost_per_mtok: float = 0.0,
    ):
        self.provider = provider
        self.model = model
        self.ledger = UsageLedger(
            input_cost_per_mtok=input_cost_per_mtok,
            output_cost_per_mtok=output_cost_per_mtok,
        )
        self._interval = min_interval
        self._last_issue = 0.0
        self._lock = threading.Lock()

    def _admit(self) -> None:
        if self._interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            wait = self._last_issue + self._interval - now
            if wait > 0:
                time.sleep(wait)
            self._last_issue = time.monotonic()

    def complete(
        self,
        messages: list[dict],
        temperature: float = 0.7,
        max_tokens: int = 4096,
        nonce: int = 0,
    ) -> ChatExchange:
        request = ChatRequest(
            messages=messages,
            model=self.model,
            temperature=temperature,
            max_tokens=max_tokens,
            nonce=nonce,
        )
        self._admit()
        exchange = self.provider.complete(request)
        with self._lock:
            self.ledger.add(exchange)
        return exchange
