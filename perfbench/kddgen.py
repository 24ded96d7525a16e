"""Seeded generator of synthetic KDD-99-format connection records.

Writes 42-field comma-separated lines (41 features plus a label with the
trailing dot of the original files).  Label shares follow the 10% training
file and the corrected test file, scaled to the requested record count.
Every split carries its own denial-of-service set (``kdd.TRAINING_ATTACKS``
or ``kdd.TESTING_ATTACKS``), normal traffic and a few non-DoS labels that
the pipeline must filter out.  Records of one label arrive in contiguous
bursts, so per-protocol windows mix normal and attack traffic where bursts
meet.
"""

from __future__ import annotations

import random
from collections import Counter

# Record counts per label in the original files; they fix the label shares.
TRAINING_MIX = {
    "smurf": 280_790, "neptune": 107_201, "normal": 97_278, "back": 2_203,
    "teardrop": 979, "pod": 264, "land": 21,
    "satan": 1_589, "ipsweep": 1_247, "portsweep": 1_040, "warezclient": 1_020,
}
TESTING_MIX = {
    "smurf": 164_091, "normal": 60_593, "neptune": 58_001, "mailbomb": 5_000,
    "back": 1_098, "apache2": 794, "processtable": 759, "pod": 87, "teardrop": 12,
    "land": 9, "udpstorm": 2,
    "snmpgetattack": 7_741, "guess_passwd": 4_367, "satan": 1_633,
}
# The denial-of-service sets of the two splits, as fvba.kdd defines them;
# every other label except "normal" must be filtered out by the pipeline.
TRAINING_DOS = frozenset({"back", "land", "neptune", "pod", "smurf", "teardrop"})
TESTING_DOS = TRAINING_DOS | {"apache2", "mailbomb", "processtable", "udpstorm"}
TRAINING_RECORDS = 494_021
TESTING_RECORDS = 311_029

# Every label of a mix gets at least this many records, so that rare
# attacks stay present at small scales.
_MIN_PER_LABEL = 3
_BURST_LIMITS = (20, 1_500)

_NORMAL_SERVICES = {
    "tcp": ("http", "http", "http", "smtp", "ftp_data", "private", "telnet"),
    "udp": ("domain_u", "domain_u", "private", "ntp_u"),
    "icmp": ("eco_i", "ecr_i", "urp_i"),
}
_NEPTUNE_SERVICES = ("private", "private", "private", "http", "telnet", "ftp", "smtp",
                     "finger", "uucp", "whois", "gopher", "link", "systat", "netstat")


def _profile(label: str, rng: random.Random) -> tuple[str, str, str, int, int]:
    """(protocol, service, flag, src_bytes, dst_bytes) for one record."""
    if label == "normal" or label == "snmpgetattack":
        if label == "snmpgetattack":
            return "udp", "snmp", "SF", rng.randint(40, 120), rng.randint(40, 200)
        protocol = rng.choices(("tcp", "udp", "icmp"), weights=(78, 20, 2))[0]
        service = rng.choice(_NORMAL_SERVICES[protocol])
        if protocol == "tcp":
            flag = "SF" if rng.random() < 0.95 else rng.choice(("REJ", "S0", "RSTO"))
            return protocol, service, flag, rng.randint(150, 400), rng.randint(200, 12_000)
        if protocol == "udp":
            return protocol, service, "SF", rng.randint(30, 160), rng.randint(0, 160)
        return protocol, service, "SF", rng.randint(8, 1_480), 0
    if label == "smurf":
        return "icmp", "ecr_i", "SF", rng.choice((1032, 1032, 520)), 0
    if label == "pod":
        return "icmp", "ecr_i", "SF", 1480, 0
    if label == "neptune":
        return "tcp", rng.choice(_NEPTUNE_SERVICES), rng.choice(("S0", "S0", "REJ")), 0, 0
    if label == "land":
        return "tcp", rng.choice(("finger", "telnet", "http")), "S0", 0, 0
    if label == "back":
        return "tcp", "http", rng.choice(("SF", "RSTR")), 54_540, 8_314
    if label == "apache2":
        return "tcp", "http", rng.choice(("SF", "RSTR", "S3")), rng.randint(0, 300), 0
    if label == "mailbomb":
        return "tcp", "smtp", "SF", rng.randint(4_000, 5_000), rng.randint(300, 400)
    if label == "processtable":
        return "tcp", rng.choice(("private", "http", "finger")), rng.choice(("SF", "S1")), 0, 15
    if label == "teardrop":
        return "udp", "private", "SF", 28, 0
    if label == "udpstorm":
        return "udp", "private", "SF", 28, 28
    if label == "satan":
        return "tcp", rng.choice(_NEPTUNE_SERVICES), "REJ", 0, 0
    if label == "ipsweep":
        return "icmp", "eco_i", "SF", 18, 0
    if label == "portsweep":
        return "tcp", "private", rng.choice(("REJ", "RSTR")), 0, 0
    if label == "warezclient":
        return "tcp", "ftp_data", "SF", rng.randint(300, 30_000), 0
    if label == "guess_passwd":
        return "tcp", rng.choice(("telnet", "pop_3")), "RSTO", 125, 179
    raise ValueError(f"no record profile for label {label!r}")


def _line(label: str, rng: random.Random) -> str:
    protocol, service, flag, src, dst = _profile(label, rng)
    count = rng.randint(1, 511)
    srv = rng.randint(1, count)
    same = srv / count
    features = [
        str(rng.randint(0, 2) if label == "normal" else 0), protocol, service, flag,
        str(src), str(dst), "1" if label == "land" else "0",
        "1" if label == "pod" else ("3" if label == "teardrop" else "0"),
        "0", "0", "0", "1" if flag == "SF" and protocol == "tcp" else "0",
        *["0"] * 10,
        str(count), str(srv),
        "0.00", "0.00", "0.00", "0.00", f"{same:.2f}", f"{1 - same:.2f}", "0.00",
        str(rng.randint(1, 255)), str(rng.randint(1, 255)),
        f"{rng.random():.2f}", "0.00", "0.00", "0.00", "0.00", "0.00", "0.00", "0.00",
    ]
    return ",".join(features) + f",{label}."


def label_counts(mix: dict[str, int], records: int) -> dict[str, int]:
    """Scale a label mix to exactly `records` records."""
    full = sum(mix.values())
    counts = {label: max(_MIN_PER_LABEL, round(n * records / full)) for label, n in mix.items()}
    largest = max(mix, key=mix.get)
    counts[largest] += records - sum(counts.values())
    if counts[largest] < _MIN_PER_LABEL:
        raise ValueError(f"{records} records are too few for {len(mix)} labels")
    return counts


def write_split(path, mix: dict[str, int], records: int, seed: int) -> Counter:
    """Write one split of `records` records to `path`; return the label tally."""
    rng = random.Random(seed)
    bursts = []
    for label, count in label_counts(mix, records).items():
        while count:
            size = min(count, rng.randint(*_BURST_LIMITS))
            bursts.append((label, size))
            count -= size
    rng.shuffle(bursts)
    tally: Counter = Counter()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for label, size in bursts:
            handle.write("".join(_line(label, rng) + "\n" for _ in range(size)))
            tally[label] += size
    return tally
