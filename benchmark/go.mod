module pran/benchmark

go 1.22

require pran v0.0.0

replace pran => ../
