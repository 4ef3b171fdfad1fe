module psclock/bench

go 1.22

require psclock v0.0.0

replace psclock => ../
