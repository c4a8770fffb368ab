"""Makes the checkout's library and the benchmark modules importable for
`python3 -m pytest krbench`."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
