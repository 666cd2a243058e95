"""The golden table: CLI stdout and artifacts pinned by sha256.

``GOLDEN`` holds the digests of every run of ``test``, ``estimate`` and
``meta`` (default flags, and ``--hedges --model fixed``) on each bundled
dataset, and of the seeded ``simulate`` and ``demo`` runs and the runs
on ``s3_groups.csv`` that ``test_golden.py`` lists.  A change that alters any of these bytes on
purpose must say so in CHANGES.md and refresh the table; print the
current digests with

    PYTHONPATH=src python tests/test_golden.py

This module imports neither pytest nor numpy, so it also runs as a
script under any supported Python:

    PYTHONPATH=src python tests/golden_table.py

The script checks the 24 runs that need only the standard library (the
four ``RUNS`` on the six ``DATASETS``) against ``GOLDEN``, and that each
input in ``REFUSALS`` makes ``test``, ``estimate`` and ``meta`` exit 2
with one ``error:`` line and nothing on stdout.  Those inputs are the
ones whose handling has differed between Python versions: JSON numbers
past the float range or ``int()``'s digit limit, arrays nested past the
recursion limit, and labels no artifact can hold.  It prints each
mismatch and exits 1 if there is one.  ``simulate`` and ``demo`` need
numpy; they and the ``s3_groups.csv`` runs are checked by
``test_golden.py`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

from sumnorm.cli import _SETTINGS, main

DATASETS = ("banach2016", "ferretti2017", "ferretti2017_mmp9",
            "hawkins2017_bnp", "zhang2017", "zhang2017_leptin")

RUNS = {
    "test": ["test"],
    "estimate": ["estimate"],
    "meta": ["meta", "--output-dir", "out"],
    "meta-hedges-fixed": ["meta", "--hedges", "--model", "fixed",
                          "--output-dir", "out"],
}

# The SUMNORM_* variables of the CLI's settings; every golden run is
# made without them.
ENV = tuple(env for env, *_ in _SETTINGS.values())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dataset_argv(run: str, dataset: str) -> list[str]:
    csv_path = str(files("sumnorm") / "data" / f"{dataset}.csv")
    return [RUNS[run][0], csv_path, *RUNS[run][1:]]


def run_digests(argv: list[str], workdir: Path) -> dict[str, str]:
    """sha256 of stdout and of every artifact of one run in ``workdir``.

    Artifacts land in ``workdir/out`` under a relative path, so the
    ``report:``, ``csv:`` and ``svg:`` lines do not depend on where
    ``workdir`` is.
    """
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    digests = {"stdout": _sha(stdout.getvalue().encode("utf-8"))}
    out_dir = workdir / "out"
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            digests[path.name] = _sha(path.read_bytes())
    return digests


# run/dataset -> {stdout or artifact name: sha256}
GOLDEN = {'estimate/banach2016': {'stdout': '415de5e53ad4594fa8bc7cf303f3e5263fa54f1d02196fcc8cee4ea7c2a6d30f'},
          'estimate/ferretti2017': {'stdout': '7b442bed037c48670ecc7845b96e0e5dd35178f647e40bf20b7f24bee90fd891'},
          'estimate/ferretti2017_mmp9': {'stdout': 'ecf645cd7aa43d806cd44ad63b491d28dafe409ed3b8fddfd37591873840e318'},
          'estimate/hawkins2017_bnp': {'stdout': 'eaeec716b8086009128df2319be876b88e4d635b256eedc50b4c214ffe224e19'},
          'estimate/zhang2017': {'stdout': '92fd1868428d09c580520522505ba49fa2059a9a8ebc03e04c20a309c6bf5074'},
          'estimate/zhang2017_leptin': {'stdout': '7ecae8d032402e67d2be1380bb486be0f22dc009cb15bac61673f87d5197f6dd'},
          'meta/banach2016': {'stdout': '902cc1ae460ad98c691c1ab1d057b6f6d3f31487802b2a99dc6311b56fb81f91',
                              'forest_hdl-c.svg': '101615f0162ad57050ad64dd5873cb2f4c958fe288ada23586f7cc7eff943428',
                              'forest_ldl-c.svg': 'f4c9922a24da389a5e90f0754d83f7e74865f7b898da0e5413eeee4975acf8be',
                              'forest_total-cholesterol.svg': '91ac8a391c5f3ec50178c804c0a15ac9a09bf7b5cdf1a71a27cfd48b252fcc17',
                              'forest_triglycerides.svg': '77b55567ac35fc5d98b1e17bd17caa1f4d8ff3f07754d8938bd1ef1b87183854',
                              'report.json': '1bc9f97333b928f79a514cc154208fa67cb54935ba134985bf8e525a9d831982'},
          'meta/ferretti2017': {'stdout': 'e8e8d2bee1cd074c06bac71f8775a13e680d249db7bbf1ef8f9c4b87a06b5a30',
                                'forest_mmp-3.svg': '6a59dac92edb74f55f952ed3a9f04eef9cea1c4fc47eaecc1c052670423b733d',
                                'forest_mmp-9.svg': 'c7d60d34d41c061a8a37c30b7c381ca106a0ba13ac40726a080424792dccb52b',
                                'forest_timp-i.svg': 'f7add32b7d49ee7bc00977ea7b7e4a3fcd701ff27bbef1e16737141fc6d042cc',
                                'report.json': '484fea190f679ac6852c4a536f6425dc9c3e337d884895164238f6b07ed84f4c'},
          'meta/ferretti2017_mmp9': {'stdout': '00e340fbfe74d34f0efc9e4f5fee32684455b9d2ba04bcb2da3f959d468d7fb0',
                                     'forest_mmp-9.svg': 'c7d60d34d41c061a8a37c30b7c381ca106a0ba13ac40726a080424792dccb52b',
                                     'report.json': '9167d9349c534a42b68517fdc17976a44a594adaf56831ad21787ede96ef1af3'},
          'meta/hawkins2017_bnp': {'stdout': '008dbdb46be8c2db1caec27515f53401a5da0c0ff66bc457953182fe9371d349',
                                   'forest_bnp.svg': 'f99e1e5846f09f24cabcf0ba32e5e54ff5325daa346bef720d0ee96025d0fea4',
                                   'report.json': '602cd011f07de8617777d41f5bbb0e000708006d8b07ca960c0b79dae973e20c'},
          'meta/zhang2017': {'stdout': '2b190a3bb597347f56b85891b54f166d2248c92cd595723c8020854bdf979792',
                             'forest_adiponectin.svg': '588f29631cf3b0688800c541279415c76ba446a17adda5796603a73ceb549190',
                             'forest_leptin.svg': '9f0cfd9ac0724a319c18d29b0a6e56c683fceb83e38c3920eb55f5aa36b6325c',
                             'report.json': 'eb6696ab0216e1302a2f5b25c37b07be6c6bf026c5c61a4eca5b8db5dc57fee3'},
          'meta/zhang2017_leptin': {'stdout': 'ca56fb0d6254f82b32a76bea39b172ea1ec8fd2474d92d64b27cd74a7f3a8745',
                                    'forest_leptin.svg': '9f0cfd9ac0724a319c18d29b0a6e56c683fceb83e38c3920eb55f5aa36b6325c',
                                    'report.json': 'b83f43df0f0a3ea4c2fd8104b18c5cb87fb9efcfff77ee6311f81c82e764c924'},
          'meta-hedges-fixed/banach2016': {'stdout': '1c1641b9e2c136bdd442240852686ae3142d75d40431d9b398677d8730e0a7ae',
                                           'forest_hdl-c.svg': 'b3abf9e88e14635a09741602116d68bdb15d5d4d4017c697d24d1813e78a660a',
                                           'forest_ldl-c.svg': 'c7adbfcbb6b2caa211fda8bd8179f5748399adf85a9ac03caba1a214813e7e83',
                                           'forest_total-cholesterol.svg': '8aa9344b03baa26489dd5c0bcde9d53a152405417bc3d81023dc860fda6b6b05',
                                           'forest_triglycerides.svg': 'a9bd753f76b10e82581f66deea5423b78f306094cc23edab8f603fed81a1cdbb',
                                           'report.json': 'bfaff65c8081d4fe3541c99973405deae873e87307006e494a164d85d486de7a'},
          'meta-hedges-fixed/ferretti2017': {'stdout': 'fe40458b0a4a65f34d3ebf6040b3bc01f253478f4d42d6e050b9b3a26b7865c7',
                                             'forest_mmp-3.svg': '44d8fec6af43623104eccae76adff6fc24d1191091b97fcdca7ddcb49ebf6fed',
                                             'forest_mmp-9.svg': '528c9466b1ec865fb596175a2bfa78b19fc527509c75346f7f6e0612693112c0',
                                             'forest_timp-i.svg': 'de09ccae62503c0e934684a95de49bf2a20f86c3fdfe1b037bfee27806f61842',
                                             'report.json': 'd4ee462fffb53cc3de211dcea0201ac607127ec277d7bf05749892fa46767eab'},
          'meta-hedges-fixed/ferretti2017_mmp9': {'stdout': 'e838c1e9d6d9317cd5fd51a72d9d92fe6777f2ae79e97b98e39bb1269a482426',
                                                  'forest_mmp-9.svg': '528c9466b1ec865fb596175a2bfa78b19fc527509c75346f7f6e0612693112c0',
                                                  'report.json': '269e0813071073cc123af4c22ed7db8ca63104002e0576691df479867b949819'},
          'meta-hedges-fixed/hawkins2017_bnp': {'stdout': 'e1c847a916de863fdba9c50e89c4a89bae812e13348af1cb3d304154a764e6d2',
                                                'forest_bnp.svg': '0efb8d87d1561b4b134c28eb4f9c62b713a35e033a2cf9389e2e5bbed9511283',
                                                'report.json': 'eab8ebeae9803cd3ccf9e2b9af175351b8ee335ddcb7206cd6c13bf97ae3827d'},
          'meta-hedges-fixed/zhang2017': {'stdout': '205ea538679a09979fdda88c9a323e3ff0b3f9f4b8fb60ae92d1036b243ff51d',
                                          'forest_adiponectin.svg': '13bd4f409f94866ee4dd7db53f5a767a42769f92f8481eb492d8823bb6bc219e',
                                          'forest_leptin.svg': '5bb2b05e0b54994afaee416063d27deb4eb78a17de1021b590c8b9fb94299c0d',
                                          'report.json': '662759f322799cc58f48727a588545d2e2ff4b4fd41e953e2e25b3e509851a93'},
          'meta-hedges-fixed/zhang2017_leptin': {'stdout': '2a23a881b94e516a2c535b28b3cc46790b8307b1413a9b0cf3fc798a7ae1993e',
                                                 'forest_leptin.svg': '5bb2b05e0b54994afaee416063d27deb4eb78a17de1021b590c8b9fb94299c0d',
                                                 'report.json': '1b2b5c9ad2c949ad3bb58f65abee769cca7128b660660741551f74fb407060e8'},
          'test/banach2016': {'stdout': '3f850ea1b80dc3f26ec8bca56f861ab77f69dbd566b48af96050b4eaaddb1316'},
          'test/ferretti2017': {'stdout': '246474c1a4990bce6d85c8a022415e543478f4c86fd97427ce6dfb4a66eb711a'},
          'test/ferretti2017_mmp9': {'stdout': 'b76ece3fe34493a590ae84a8be1987c6df756b5aaf0f35848c9fe428ad304851'},
          'test/hawkins2017_bnp': {'stdout': 'a8172ddd05e5a1d4817e498e0bdefb6c10950178a49a7fe2534ccaa19de612e1'},
          'test/zhang2017': {'stdout': '561456bb7e8a5d45714fadfde57e70bd1e542e75abd17a3b3876fdf4c8345aaa'},
          'test/zhang2017_leptin': {'stdout': '7fd6e033d4363c695c0c81849fc88850f97fbae93e20159de398d0ab60d55059'},
          'simulate/type1-s1': {'stdout': '5260e6d360d0e484618d52af1334a78e73282c2ed81a87e474471a4af227936b',
                                'type1_s1.csv': '719e94444d573f09a232c4c62b82a5d2fe48a4ea2cee632922d42bcdc272d4c5',
                                'type1_s1.svg': '62d48b5bb607ef2ae90a6b80bf21c4c4d07d11817ba01023f17d1a6755788f2b'},
          'simulate/type1-s2': {'stdout': '7206bdd5dad65f4e5b295d66115f52c2d76c4700e27b207d30f780d45445efbe',
                                'type1_s2.csv': 'd16611cef7c96d805f1181887b82690312a395ce6e1652c7e3b947ee60eb770a',
                                'type1_s2.svg': '334e54fb1efebe63828cb623bc87cf7ed5cf037f20ba61ebcc71a7e7912e0e70'},
          'simulate/type1-s3': {'stdout': 'f0f9c55b3d1cb1a117d4279bd06595c766758cc9c185528b9b85d7494a977abb',
                                'type1_s3.csv': 'cc55ea25b6b19cd9b88567ee6d1ba518ca438e30c8f629430bb8e65c574bd02e',
                                'type1_s3.svg': '88a3153d51908b9fc6586b1ee1058dbc43ba2b7aa0366629c411ea0afe9f1dd3'},
          'simulate/type1-s3-chunks': {'stdout': '542f04d17e69f063584011c5b7ce035dbfb387c68bccd9b18ead01227c6ffb1b',
                                       'type1_s3.csv': '4ce476a6c8760b35d2a688b250c07365dd2a904054c8620e049dc2d929ac8fbd',
                                       'type1_s3.svg': 'acf83de95a3cc33e33583877a10580718af5b9ba12e89ccaa6fd009c42fee8c2'},
          'simulate/power-normal': {'stdout': 'a3f2a69a728a56f04b2b85f55c13a78d3c6fec831f6b0ae8e0e76fe5d1ce6b1c',
                                    'power_s1_normal-1-2.csv': 'b085925d573cd1c0d9b5b00067368b38dad14fe6629c87fc95a989d6999f9202',
                                    'power_s1_normal-1-2.svg': '0f51e2b5e7214ab74eb7c27ba190318d6bd1f88aadee683f34ad81633c858f25'},
          'simulate/power-lognormal': {'stdout': 'ff47296fd8628768ab01829627cfbca2668b02865cad67d3ac2d8aaaf63ec1b5',
                                       'power_s1_lognormal-0-1.csv': '0af284eb433284f7bf43ed5e4fa88f71fd1ae00ef8f050a559ea8510e9038f88',
                                       'power_s1_lognormal-0-1.svg': 'fc623a25b535e1c01b448ff9e32193c505600ca364cee8c0fc4c0e5b55dee172'},
          'simulate/power-chisquare': {'stdout': '48ffe9f5143b9eada5d73e158d2c6a22ce59b1e442bc456a355084cc0dcd1982',
                                       'power_s2_chisquare-1.csv': '3dc90a5b9f805a9070306e07140f739b92099e43bfdc51542b6fb4eeefd91976',
                                       'power_s2_chisquare-1.svg': '84d2a9ff3bb9ce2290ed8b321d7c2f20e75ed9f4dff243c0655e8a6f10c64afe'},
          'simulate/power-exponential': {'stdout': '0953f54fbcea83c295ae369c51813cf8069ee53c56fb0a8899da6a0446fed62e',
                                         'power_s2_exponential-3.csv': '580d6b446351cf1fa880c3e87f52639817978a3bf44098ecb420e9a26e85310a',
                                         'power_s2_exponential-3.svg': '92cdfabe971e493ffa690f0f01ef5a0884f668c356eda69ad782b94cf6c3c191'},
          'simulate/power-beta': {'stdout': '486a0dc70f91533410659c6d4fb1cc325e5ccce100a2bf5aa265ef6da8b147a8',
                                  'power_s3_beta-1-5.csv': '175a55809c52ac893f8e7ad91e0db9c7f9eb79badd2ef7e36bb35dcecd9aa759',
                                  'power_s3_beta-1-5.svg': '4079aacf0a207eef3ee30b538c41a0152b70fa35356e648e8c11700b156d855e'},
          'simulate/power-weibull': {'stdout': 'c97675a6c15fd03f03d79ccae135dffdbcf64548cddff7860430593c3fb5da94',
                                     'power_s3_weibull-2-3.csv': '360e46eb1d02db697a754c39e4fd3f0a4aef20ce4a14d4a37d5ba4bdc17bc265',
                                     'power_s3_weibull-2-3.svg': '0e9721b2b06458c8057f2770144f2b5631253fb4f9066cd17501b69ceff58343'},
          'simulate/power-chisquare-sorted': {'stdout': 'ad1479a554e227bb9bc796f1ec2a4d160dfd114f73d90879f32f2316f0094ea0',
                                              'power_s1_chisquare-3.csv': 'dbc5fef29aac8f7282e301ef5d3b1209eac515184d34d64da651c811fca397f6',
                                              'power_s1_chisquare-3.svg': '1234a26cc18576ee5e2709838d014a56866a398b237df66b47208829c3c294d3'},
          'demo/all-pairs': {'stdout': '06054f78fc0aad14d83e92a1b2d1bd83945c855fb73a02168957f0c9205cfc0a'},
          'test/s3-groups': {'stdout': 'd6cfb22b7cf2e279e2b86c6156bf5aca0543abadfa2124cdcf7bf4bbb152b8c8'},
          'meta/s3-groups': {'stdout': '07e01486aa76b6b971203d82e198fd581894a54d3c47ea26f697e96a1dfa01b8',
                             'forest_crp.svg': 'cb1d6b26a75e457c031feaf15cbf0363419530591165325d78142ac9383e2dd2',
                             'report.json': 'ce1df69430b660d648a9f3fd54a7536567f661323e4d7b6ea94c4759f20adaf7'}}


def _json_row(column: str, literal: str) -> str:
    # One S1 case row whose ``column`` cell is the JSON text ``literal``.
    row = {"n": "20", "min": "1", "median": "2", "max": "4", column: literal}
    return ('[{"study_id": "a", "outcome": "o", "arm": "case"'
            + "".join(f', "{k}": {v}' for k, v in row.items()) + "}]")


# name -> (file name, file text): inputs every command must refuse.
REFUSALS = {
    "min-401-digits": ("huge.json", _json_row("min", "1" + "0" * 400)),
    "n-401-digits": ("huge.json", _json_row("n", "1" + "0" * 400)),
    "min-5001-digits": ("huge.json", _json_row("min", "1" + "0" * 5000)),
    "nested": ("deep.json", _json_row("min", "[" * 100_000 + "]" * 100_000)),
    "control-character-label": (
        "ctl.csv",
        "study_id,outcome,arm,group_label,n,mean,sd,min,q1,median,q3,max\n"
        + "".join(f"a\x01b,o,{arm},{arm},20,,,1,3,5,7,9\n"
                  for arm in ("case", "control"))),
    "lone-surrogate-label": ("surrogate.json", json.dumps([
        {"study_id": "a", "outcome": "o\ud800", "arm": arm, "n": 20,
         "min": 1, "median": 5, "max": 9} for arm in ("case", "control")])),
}


def _refusal_problem(command: str, name: str, workdir: Path) -> str | None:
    """What is wrong with ``command``'s refusal of ``REFUSALS[name]``,
    or None when it exits 2 with one ``error:`` line and no stdout."""
    file_name, text = REFUSALS[name]
    path = workdir / file_name
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)]
    if command == "meta":
        argv += ["--output-dir", str(workdir / "out")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    lines = stderr.getvalue().splitlines()
    if code != 2 or stdout.getvalue() or len(lines) != 1 or not (
            lines[0].startswith("error: ")):
        return f"exit {code}, stdout {stdout.getvalue()!r}, stderr {lines!r}"
    return None


def check() -> list[str]:
    """Every mismatch of the stdlib-only golden runs and refusals."""
    for name in ENV:
        os.environ.pop(name, None)
    failures = []
    for run in sorted(RUNS):
        for dataset in DATASETS:
            key = f"{run}/{dataset}"
            with tempfile.TemporaryDirectory() as tmp:
                got = run_digests(dataset_argv(run, dataset), Path(tmp))
            if got != GOLDEN[key]:
                failures.append(f"{key}: digests differ: {got}")
    for name in REFUSALS:
        for command in ("test", "estimate", "meta"):
            with tempfile.TemporaryDirectory() as tmp:
                problem = _refusal_problem(command, name, Path(tmp))
            if problem:
                failures.append(f"{command} refusing {name}: {problem}")
    return failures


if __name__ == "__main__":
    failures = check()
    for line in failures:
        print(line)
    runs = len(RUNS) * len(DATASETS)
    print(f"Python {sys.version.split()[0]}: {len(failures)} mismatches in "
          f"{runs} golden runs and {3 * len(REFUSALS)} refusals")
    sys.exit(1 if failures else 0)
