from perfbench.harness import load_streampart

load_streampart()
