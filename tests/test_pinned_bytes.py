"""The six scenarios at seed 11 give the same bytes, run after run: each
report (its timings aside) and each cache directory, at both levels, local
and cached (cold, then warm over the same directory), and the evm level's
report in customTracer mode. A cache directory is pinned as its entries'
digest and its anchor's bytes, which name the scenario's chain.json.

A change that must not change a result is checked against these digests.
A change that means to change a result updates them, and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from evmsleuth.cli import main
from evmsleuth.explorer import ANCHOR
from evmsleuth.fixtures import SCENARIO_NAMES, build_fixture_chain, write_fixture

SEED = 11

# scenario -> level -> sha256 of (local report, cold report, warm report,
# cache entries after the warm run)
PINNED = {
    "Bank": {
        "evm": (
            "9a4d23310fd5e263df40d027bd52a5325388d13d239dc8434de3412159f84d41",
            "c1c5f1a081fd2881b4a6fd41925a30204a120cbd4a245422e263e078228e3bcd",
            "cc6a2c6ff1a53e9c2fd47a368d94d366c93075b78b9fa63408dfe7c8e4cacf1b",
            "a479bd0bd29e31dc4c24c36f8f6c14014b35039b68c67527e995912f8865623e",
        ),
        "block": (
            "a27d0cb4d615f6096e093569a8480f254b2949f703722fab7d5d23ea7fec3f71",
            "3d089655c579e0c16a0f39d8d704cbe8f01dbccc891569d688e51bdca2d3e6a6",
            "d85103ed62ae98a91c3e9b52ce5b9f09e813380e13d0dc603927b5979e5b0172",
            "8881d7443fc5e8208624bd19a2d97e5c05ccba2cc0f10082197630772d97eb1c",
        ),
    },
    "DelayedUnderflow": {
        "evm": (
            "3c5973d29920e74235268175cbbff9f09f08420867f34ed089fb2c99c14e0e38",
            "611013c78621ab08fed4e59249fdc4b307d041a6687675f514f555c1b2af3cce",
            "766819ac41715e21d78526b3e355869813042d2cb217a7ff745e2f0f6f74729b",
            "cec82d2051cd09f984e6854c7bc5ed07d89bd1b30ecfce42a5b8a47064d23850",
        ),
        "block": (
            "e11f5d8c9b1419fbac0d62469345b1fd40beb3835f45fec7b2c1dca6bc5a3315",
            "4a5ba02af7187498fbdb8d6a432be895b343b92ae4a517bfc3f7efb906142560",
            "3e46063cae9ec6f6222777cc2efbc1fb38b15a299dcddf8ddca1b33364dd6a09",
            "6d4ed34cb524336c08066553966be397b7087130d4c4da4418ae0167682a9270",
        ),
    },
    "ProductVote": {
        "evm": (
            "77ecde90de73365472781da86d524bf777e852b2f247048d2f1a4d164bc8847f",
            "493be05510fe6dfdba89b9c348d6b0705408995eaf3004cd715db077fc5c5dc9",
            "7bd3e2e5364a564a81ce15a443a57e8972e946bc33e14cf03fc363e49268cf8e",
            "f628eca02b0a454c07bc531ac957cceee39d2ecd3a0b3f2d6ad7c58108e60e8d",
        ),
        "block": (
            "03adf23887f4a5c076f03366209bde927f9b9f03a7c9a66956748d2aac9ab193",
            "a34183898e1b3c7c93f7504f8caaa83ccb5903661a63c6fed29948f241eec128",
            "61ae26e4bd2cb2f3a9868fb9f7e31ae5179ad042ea2ec75906bba9e5cd86c8a0",
            "2ea066aa4e3f1e63d20315bfbfab7bb947d09eeb762648ae346a71495b806a61",
        ),
    },
    "SimulationBECToken": {
        "evm": (
            "718c5c23435e115fe94702f73c6b072272bfe886d3d074a565fe9a5ecfec02db",
            "dc6db5afa432896abea59c4189be047e028dba3278b86d3b9e21d9c2e69eaf85",
            "c7ede476762e76f23364489d40f937dbdce6f89cf1faae06a38b6f5abb335c5c",
            "9ca671d7cd04aac6651f12af0f63e27fca55086fbf49c52709eb1233735447c3",
        ),
        "block": (
            "21421d995dfaad9663d6a4063f8a2e6dd52eb95fa5ea169a8dfffe26b5bd8cb4",
            "8a15e618ba19afb95a9e9747efcb2c2ec4fcca21bc756cd816c67a9738b1dede",
            "9d47284e0df4170eba57068ee35dc417e2dfb1115637ae073a365115b2136bf7",
            "05af1141337ea8a747745362b46860cc72aeea78a95974efb496344c79fda829",
        ),
    },
    "SimulationKotET": {
        "evm": (
            "289bc2928cb8c30b1e8827d77ad6e4a481756687488c3afe9b22c125177b505a",
            "d5038938b4f870bd3811220434a6e80985f18c6da9c109facdbe667d09cf4ea4",
            "267b27625b86444607ee90ed89d6a48d3e833bff27d494ce8f4e6d49fe9b4487",
            "174b8f3ebb4e2df11687a4d1b21adc0ca2f79c140251ec70343e4b9d44b6928c",
        ),
        "block": (
            "dfe10b7ed2b8509cfd3460075a8e635615ecf7cc75d3a0c95a32b8c780bf00b4",
            "3b9038ad68d1e29b1a2e80a9b9a2606cf6f8c9bc4fe97420842b91e5d232910b",
            "1e242cfdc0112de807139167371fb20f885dbe85397e89e4725a6c7590f5d2e1",
            "1a0144a164126b86d94a5ba9bcf36b9ef23d704f4cf9e05849fd7f304f6d260d",
        ),
    },
    "TargetUnderflow": {
        "evm": (
            "f17639f3c34b759121aab092dbe26be6d4711072e19240f0080f94020ac37b42",
            "05d2654c577df4c654b026fc410e2381c64b85f98ac6817c4c00d5307d9aacbe",
            "a6e08320038150e14260f895c715e4a3d58d11fe3f60fd7e8b5235e351cfab3c",
            "12ab95da3146bd4bfadc019aa56d7837ac0a6a5a510ee0db323b8182d5c448da",
        ),
        "block": (
            "c5f50ebcdfc35ab6914b88a1b3ab30305dafa0525697f76ae492380a3641882e",
            "d14979f8eb9d1e87632ce24f8699ff705b1c54d457d61a38e0dc96c6cfc796be",
            "d797704cf1a63a3bd882ac09f395b89122b9069a49dc252cf3d8ccde39cf2376",
            "db912e1030bc40f292dd54d13ad1df620f2ecd197c1935de374d94ea4d21be76",
        ),
    },
}

# scenario -> the bytes of a cache directory's anchor, at either level
ANCHOR_PINNED = {
    name: b'{"chainSha256":"' + chain_sha256.encode() + b'"}'
    for name, chain_sha256 in {
        "Bank": "18d9335f50b14ff9829ad7902428217719baafdd08f8ba034766a8a091295d25",
        "DelayedUnderflow": "e904498ed36400294a993e54eaf0790154438cb22e387b80635d73685beb228f",
        "ProductVote": "ca7efdd2dc7955821d6b1bf7fef29943963dc3f0eba6f692a5d63bb135554845",
        "SimulationBECToken": "7b3122bfcd4b85c854abb7afb84e12a8060fefd27281826532f98c34ef1de3a9",
        "SimulationKotET": "2157f5128dd30386e239dc07bc3172f1bbf2a83891720b9dfb8e62dc9cc1bbd2",
        "TargetUnderflow": "7ff4abc433c89bf955ebf74322a800acfd0c134e5afdd5baf087cb9810b071d7",
    }.items()
}

# scenario -> sha256 of the evm level's customTracer report
TRACER_PINNED = {
    "Bank": "67ecce057561f5d0cd70d6d37fa3271931a784c5a5ef8619bee78fa43a8bba6f",
    "DelayedUnderflow": "650f59540d92f59919383c7c76e41bd25877ea310348add81f4f6437db7a026f",
    "ProductVote": "732071eba620cfd54757003d1ad9bc304e74c17ceb53faf51ace2c65c23d8036",
    "SimulationBECToken": "2a9bf7766a8d1a7caa7d0f6455ea5a05cc5aa10e7ec958061142dd1176160518",
    "SimulationKotET": "81f30cbda46e37cfbc426b664817fbf37eddbe6789f0feaee7d5c166d223aafb",
    "TargetUnderflow": "e50220cb4dc18ffcb56ddfc46e9cd0b1e2953105c86b468c88728373ee0b4201",
}


@pytest.fixture(scope="module")
def scenario_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("pinned")
    for name in SCENARIO_NAMES:
        write_fixture(build_fixture_chain(name, seed=SEED), base / name)
    return {name: base / name for name in SCENARIO_NAMES}


def report_digest(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["investigate", "-t", "pinned", *argv])
    assert code == 0, err.getvalue()
    doc = json.loads(out.getvalue())
    del doc["timings"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def tree_digest(directory: Path) -> str:
    """The digest of the cache entries under directory: every file but the
    anchor."""
    files = sorted(
        (path.relative_to(directory).as_posix(), path.read_bytes())
        for path in directory.rglob("*")
        if path.is_file() and path.name != ANCHOR
    )
    return hashlib.sha256(repr(files).encode()).hexdigest()


@pytest.mark.parametrize("level", ["evm", "block"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_seed_11_bytes_are_pinned(scenario_dirs, tmp_path, name, level):
    archive = ["-e", f"local[dir={scenario_dirs[name]}]", "-d", level]
    cache = ["-c", str(tmp_path / "cache")]
    got = (
        report_digest(*archive),
        report_digest(*archive, *cache),
        report_digest(*archive, *cache),
        tree_digest(tmp_path / "cache"),
    )
    assert got == PINNED[name][level]
    assert (tmp_path / "cache" / ANCHOR).read_bytes() == ANCHOR_PINNED[name]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_seed_11_tracer_reports_are_pinned(scenario_dirs, name):
    archive = ["-e", f"local[dir={scenario_dirs[name]}]"]
    assert report_digest(*archive, "-d", "evm[mode=customTracer]") == TRACER_PINNED[name]
